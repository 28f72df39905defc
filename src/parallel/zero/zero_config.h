// ZeRO sharding configuration and partition geometry (Rajbhandari et al.,
// 2020), composed with the sequence-parallel trainers the way the paper's
// evaluation runs every headline result (FPDT + ZeRO-1/2/3, §5.1).
//
// Stages partition the three components of model state across the P ranks
// of the sequence-parallel group:
//   stage 0  everything replicated (the reference; also the test oracle),
//   stage 1  optimizer state (fp32 master + Adam moments) partitioned,
//   stage 2  + gradients partitioned (freed to the owning rank's shard
//             right after reduce-scatter),
//   stage 3  + parameters partitioned (resident as 1/P shards, gathered
//             per layer into a working buffer before use).
//
// Partitioning is by flattened element range: parameter p of n elements is
// split into P contiguous shards of ceil(n/P) elements (the last shard is
// padded with zeros); rank r owns shard r. Sharding is a *pure memory
// transform* — every stage produces bit-identical losses, gradients and
// updates to stage 0, a property tests/test_zero.cpp enforces.
#pragma once

#include <cstdint>

namespace fpdt::zero {

struct ZeroConfig {
  // 0 = replicated, 1/2/3 = ZeRO stages (see above).
  int stage = 0;
};

// Elements per rank shard for an n-element parameter: ceil(n / world).
inline std::int64_t shard_elems(std::int64_t numel, int world) {
  return (numel + world - 1) / world;
}

// Logical byte sizes of the model-state components, matching the analytic
// memory model (perfmodel/memory_model.cpp): BF16 weights and grads (2 B),
// FP32 master copy + Adam m + v (12 B) per parameter element.
inline constexpr std::int64_t kParamBytesPerElem = 2;
inline constexpr std::int64_t kGradBytesPerElem = 2;
inline constexpr std::int64_t kOptimBytesPerElem = 12;
// Everything stage 0 keeps resident per parameter element.
inline constexpr std::int64_t kModelStateBytesPerElem =
    kParamBytesPerElem + kGradBytesPerElem + kOptimBytesPerElem;

}  // namespace fpdt::zero
