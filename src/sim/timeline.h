// Timeline builders: turn a (model, strategy, sequence) triple into a
// per-layer task graph on the four engines (compute, H2D, D2H, collective)
// and simulate it. These produce the step times behind every MFU number in
// Figs. 1, 11, 12 and Table 3. FPDT is priced from core::ChunkSchedule's op
// list — one PipelineSim task per op — and every FLOP count comes from
// kernels/op_cost.h, the formulas the executed kernels charge.
#pragma once

#include <cstdint>

#include "core/chunk_schedule.h"
#include "nn/model_config.h"
#include "sim/cost_model.h"
#include "sim/pipeline_sim.h"

namespace fpdt::sim {

struct LayerTiming {
  double forward_s = 0.0;
  double backward_s = 0.0;  // includes activation-checkpoint recompute
  double compute_busy_s = 0.0;
  double h2d_busy_s = 0.0;
  double d2h_busy_s = 0.0;
  double comm_busy_s = 0.0;
  double total() const { return forward_s + backward_s; }
};

// FLOPs of one layer's weight GEMMs over `rows` tokens (op_cost.h's
// gemm_cost): the fused QKV projection, the output projection, and the FFN
// split into its input side (up, plus gate for Llama's SwiGLU) and its
// output (down) projection.
struct LayerGemmFlops {
  std::int64_t qkv = 0;
  std::int64_t out = 0;
  std::int64_t ffn_in = 0;
  std::int64_t ffn_out = 0;
  std::int64_t ffn() const { return ffn_in + ffn_out; }
  std::int64_t total() const { return qkv + out + ffn(); }
};
LayerGemmFlops layer_gemm_flops(const nn::ModelConfig& cfg, std::int64_t rows);

// Per-rank chunk shapes of FPDT: u chunks of s_local tokens per rank, heads
// split over the world (at least one per rank).
core::ChunkGeometry chunk_geometry(const nn::ModelConfig& cfg, int world, std::int64_t s_local,
                                   std::int64_t u);

// Kernel FLOPs the simulator prices one compute op of the schedule at:
// attention steps with the exact causal pairs at the op's chunk positions
// (bitwise what the executor's span charges), the other regions as their
// GEMMs — norm, RoPE, activation and bias kernels are left out. 0 for
// transfers and collectives.
std::int64_t op_flops(const nn::ModelConfig& cfg, const core::ChunkGeometry& g,
                      const core::ScheduleOp& op);

// FPDT chunk pipeline (Figs. 5 and 7). s_local = per-GPU sequence;
// u = chunks per rank; offload toggles host caching of q̂/k̂/v̂/ô;
// double_buffer controls the prefetch window (2 vs 1 resident KV chunks).
// The forward is ChunkSchedule::forward; the backward is
// ChunkSchedule::backward, preceded by the forward when the forward outputs
// are not cached (recompute).
LayerTiming fpdt_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                              std::int64_t s_local, std::int64_t u, bool offload,
                              bool double_buffer, bool cache_fwd_outputs = true);

// Ulysses = single-chunk FPDT without offload.
LayerTiming ulysses_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                                 std::int64_t s_local);

// Megatron tensor parallelism; seq_parallel=true is Megatron-SP (all-gather/
// reduce-scatter in the norm regions), false is plain TP (all-reduce per
// block) as in Table 3's first rows.
LayerTiming megatron_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                                  std::int64_t s_local, bool seq_parallel,
                                  bool activation_checkpoint);

// Ring Attention: P blockwise steps whose P2P transfers overlap compute but
// whose causal load imbalance leaves the last rank on the critical path.
LayerTiming ring_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                              std::int64_t s_local);

// The simulated FPDT forward chunk pipeline as a ready-to-run PipelineSim
// (already run()); callers can pull the text trace or chrome://tracing JSON.
// `caching` adds the backward-cache offload traffic (q̂/lse/ô/y on top of
// k̂/v̂) — matches cfg.cache_forward_outputs of the executed system.
PipelineSim build_fpdt_forward_sim(const nn::ModelConfig& cfg, const CostModel& cm,
                                   std::int64_t s_local, std::int64_t u, bool offload,
                                   bool double_buffer, bool caching = true);

struct StepEstimate {
  double step_s = 0.0;
  double mfu = 0.0;
};

// Full training step: n_layer copies of the layer timing plus the (chunked)
// loss head, with MFU = useful model FLOPs / (time × GPUs × peak).
StepEstimate step_estimate(const nn::ModelConfig& cfg, const CostModel& cm,
                           std::int64_t s_global, const LayerTiming& layer,
                           bool chunked_head = true);

}  // namespace fpdt::sim
