// FpdtBlockExecutor — the paper's contribution, functionally exact.
//
// Executes one Transformer block across a sequence-parallel group with the
// fully pipelined chunked dataflow of §4, by running the op list of
// core::ChunkSchedule — the list the simulator prices:
//
//   forward (Figs. 4–5), per sequence chunk i:
//     norm1 + QKV projection on each rank's local chunk (RoPE at global
//     positions) → chunked All2All (scatter heads / gather sequence) →
//     online attention of q̂ᵢ against cached k̂₀..k̂ᵢ fetched chunk-by-chunk
//     → All2All back → output projection → residual → chunked FFN (2× the
//     attention chunks, §5.4) → residual.
//     k̂ᵢ/v̂ᵢ are stored in the ChunkStore (offloaded to host when
//     cfg.offload), so one (strict) or two (double-buffer) fetched KV
//     chunks are HBM-resident while an attention step computes.
//
//   backward (Fig. 7): recompute-forward with caching (activation
//   checkpointing), then
//     phase A  per chunk: FFN/norm2/Wo backward → dô chunks + softmax D;
//     phase B  nested loop — outer over KV chunks j, inner over query
//              chunks i ≥ j: online_attn_backward_step accumulates dk̂ⱼ/dv̂ⱼ
//              across the inner loop and dq̂ᵢ across outer loops; dq̂ⱼ is
//              final at (j, i=j), dk̂ⱼ/dv̂ⱼ at the end of outer j; then one
//              All2All returns the finals to their home ranks where the
//              QKV-projection and norm1 backward produce dxⱼ;
//     residual gradients accumulate along the way.
//
// One handler per op kind; every wait is the event of an op in its `deps`,
// and each rank's live chunk buffers sit in one table keyed by (Buf, chunk).
// The list always carries the offload transfers: with cfg.offload off the
// ChunkStore keeps chunks resident, so they move no bytes and take no time.
//
// Weights are *shared* across ranks (they borrow one nn::TransformerBlock):
// each emulated rank accumulates into the same gradient tensors, which
// reproduces exactly what the gradient all-reduce of the real system
// computes. Numerical equivalence against the single-device reference block
// is enforced in tests/test_fpdt.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_executor.h"
#include "core/chunk_schedule.h"
#include "core/chunk_store.h"
#include "core/fpdt_env.h"
#include "nn/transformer_block.h"

namespace fpdt::core {

class FpdtBlockExecutor : public BlockExecutor {
 public:
  // layer_index only namespaces chunk keys (debuggability).
  FpdtBlockExecutor(nn::TransformerBlock& block, std::int64_t layer_index, FpdtEnv& env);

  // BlockExecutorFactory for core::FpdtTrainer.
  static std::unique_ptr<BlockExecutor> create(nn::TransformerBlock& block,
                                               std::int64_t layer_index, FpdtEnv& env) {
    return std::make_unique<FpdtBlockExecutor>(block, layer_index, env);
  }

  // x_local: one [s_local, d] tensor per rank in rank-ordinal chunk layout.
  // Returns per-rank block outputs.
  //
  // With cfg.cache_forward_outputs the executor retains the per-chunk
  // q̂/k̂/v̂/ô/lse/y caches (offloaded to host) so the next backward() starts
  // directly from them; otherwise nothing is kept (plain activation
  // checkpointing) and backward() recomputes the forward chunk-wise first.
  std::vector<Tensor> forward(const std::vector<Tensor>& x_local) override;

  // dz_local: per-rank gradient of the block output. Consumes the forward
  // caches when present, else recomputes; accumulates weight gradients,
  // returns per-rank dx.
  std::vector<Tensor> backward(const std::vector<Tensor>& dz_local,
                               const std::vector<Tensor>& x_local) override;

  // Host bytes currently held by this block's caches (0 when not caching).
  std::int64_t cached_host_bytes() const;

 private:
  struct Lane;
  struct Run;

  std::vector<ChunkStore> make_stores();
  // Runs `sched` over every rank with its chunks cached in `stores`;
  // `dz_local` is null for a forward list. Returns the block output
  // (forward) or dx (backward).
  std::vector<Tensor> execute(const ChunkSchedule& sched, std::vector<ChunkStore>& stores,
                              const std::vector<Tensor>& x_local,
                              const std::vector<Tensor>* dz_local);
  // One op on rank r, and a collective across every rank.
  void step(Run& run, std::size_t k, int r);
  void collective(Run& run, std::size_t k);

  nn::TransformerBlock* block_;
  std::int64_t layer_;
  FpdtEnv* env_;
  // Per-rank caches retained between forward and backward when
  // cfg.cache_forward_outputs is set.
  std::vector<ChunkStore> pending_stores_;
};

}  // namespace fpdt::core
