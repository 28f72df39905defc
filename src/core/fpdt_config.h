// Configuration of the FPDT execution scheme.
#pragma once

#include <cstdint>
#include <string>

namespace fpdt::core {

struct FpdtConfig {
  // u: sequence chunks per rank. The paper's sweet spot is a 64K-token
  // *global* chunk (§5.3); u = s_local / (64K / P) at paper scale.
  std::int64_t chunks_per_rank = 4;

  // Offload cached q̂/k̂/v̂/ô chunks to host memory ("FPDT w. offload").
  // false = "FPDT w. chunking": cached chunks stay resident in HBM.
  bool offload = true;

  // Fetch each chunk one step ahead into a second buffer so the transfer
  // overlaps compute (Fig. 7): one more resident chunk set, less exposed
  // transfer time on the executor's virtual clock and in the simulator.
  bool double_buffer = true;

  // With offload, ChunkPrefetcher migrates chunks on the H2D/D2H streams
  // (overlapping compute, §3.3 / Fig. 8) instead of inline: byte-exact
  // accounting and bit-identical results; only the timeline changes.
  bool stream_prefetch = true;

  // FFN chunk multiplier relative to attention chunks (§5.4 finds 2x
  // "sufficient to ensure that the attention part strictly binds the
  // memory footprint").
  std::int64_t ffn_chunk_multiplier = 2;

  // Loss-head chunks; <= 0 means the paper's rule vocab/hidden*2.
  std::int64_t lm_head_chunks = 0;

  // Cache q̂/k̂/v̂/ô/lse/y chunks from the *actual* forward pass so backward
  // starts directly from the host caches (Fig. 7: "the global sequence
  // chunk q̂, k̂, v̂ have been cached during the forward, we then directly
  // fetch them... without introducing additional Alltoall") — no attention
  // recompute. Costs host memory proportional to n_layer; when host
  // capacity is the binding constraint, disable it and backward falls back
  // to chunk-wise recompute (plain activation checkpointing).
  bool cache_forward_outputs = true;

  // ZeRO stage composed with the sequence-parallel group (parallel/zero/),
  // 0..3; the trainer's zero::ZeroEngine charges the stage's model state to
  // every rank's HBM pool:
  //    0  replicated params/grads/optimizer, 2N+2N+12N logical bytes per
  //       rank (the conformance oracle);
  //  1-3  ZeRO-1/2/3 partitioning per Rajbhandari et al. (2020); every
  //       stage is bit-identical to stage 0 (tests/test_zero.cpp).
  int zero_stage = 0;

  // Physical grid shape (topo/topology.h): ranks per node of the emulated
  // fleet. 0 (the default) keeps the seed's flat fabric. When it divides the
  // world with more than one node, FpdtEnv builds a
  // comm::HierarchicalProcessGroup over the node-major grid — collectives
  // are payload-bitwise-identical to flat, but traffic is routed and priced
  // intra-node vs inter-node.
  int ranks_per_node = 0;

  // Head-parallel degree of the 2D (sequence × head) grid, the Untied
  // Ulysses decomposition (parallel/grid2d.h): the head All2All spans
  // `head_degree` ranks on the fast intra-node axis, the sequence axis
  // spans world / head_degree. 0 (the default) = 1D sequence parallelism.
  // Must divide the world, the model's head count and (when set) the
  // ranks-per-node, so the head axis never leaves the node.
  int head_degree = 0;

  // Math-kernel backend for the run (kernels/backend.h): "scalar" (the
  // bit-exact reference), "simd" (AVX2/FMA with portable fallback), or ""
  // (the default) to inherit the process default — FPDT_KERNEL_BACKEND or
  // "scalar". Applied by FpdtEnv for its lifetime; the env var, like
  // FPDT_FAULTS, wins over per-env config.
  std::string kernel_backend;

  // Canonical encoding of every execution-behavior knob above, one string
  // per distinct behavior ("u=4;off=1;db=1;sp=1;ffn=2;lm=0;cf=1;z=3;kb=scalar").
  // src/tune/ keys its result cache on it; fault_spec is deliberately
  // excluded (the tuner never injects faults into candidate runs). The
  // kernel backend is included: backends differ in float accumulation
  // order, so measurements under different backends are distinct results.
  std::string canonical() const {
    return "u=" + std::to_string(chunks_per_rank) + ";off=" + (offload ? "1" : "0") +
           ";db=" + (double_buffer ? "1" : "0") + ";sp=" + (stream_prefetch ? "1" : "0") +
           ";ffn=" + std::to_string(ffn_chunk_multiplier) +
           ";lm=" + std::to_string(lm_head_chunks) +
           ";cf=" + (cache_forward_outputs ? "1" : "0") + ";z=" + std::to_string(zero_stage) +
           ";kb=" + (kernel_backend.empty() ? "scalar" : kernel_backend) +
           ";rpn=" + std::to_string(ranks_per_node) + ";hd=" + std::to_string(head_degree);
  }

  // Deterministic fault-injection spec (fault/fault_injector.h), e.g.
  // "h2d:p=0.02,seed=7;collective:step=3,rank=1;oom:step=5". Empty (the
  // default) leaves the injector untouched — zero overhead beyond one
  // relaxed atomic load per injection point. Applied by FpdtEnv unless the
  // process-wide injector was already configured (CLI/env takes precedence).
  std::string fault_spec;
};

}  // namespace fpdt::core
