#include "sim/timeline.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "kernels/op_cost.h"

namespace fpdt::sim {

namespace {

constexpr std::int64_t kBf16 = 2;

using core::ChunkGeometry;
using core::ChunkSchedule;
using core::OpKind;
using core::ScheduleOp;

// One task per op, on the resource of the op's stream (resource ids equal
// the core::kStream* constants). Compute is priced from op_flops at the
// attention or the GEMM rate; collectives and transfers by their buffer
// bytes.
PipelineSim schedule_sim(const ChunkSchedule& sched, const nn::ModelConfig& cfg,
                         const CostModel& cm, const ChunkGeometry& g) {
  PipelineSim ps;
  for (const char* name : {"compute", "h2d", "d2h", "comm"}) ps.add_resource(name);
  for (const ScheduleOp& op : sched.ops()) {
    double seconds = 0.0;
    switch (op.stream) {
      case core::kStreamCompute: {
        const auto flops = static_cast<double>(op_flops(cfg, g, op));
        const bool attn = op.kind == OpKind::kAttnStep || op.kind == OpKind::kAttnBwdStep;
        seconds = attn ? cm.attn_time(flops) : cm.gemm_time(flops);
        break;
      }
      case core::kStreamH2D:
        seconds = cm.h2d_time(op.bytes(g));
        break;
      case core::kStreamD2H:
        seconds = cm.d2h_time(op.bytes(g));
        break;
      default:
        seconds = cm.all2all_time(op.bytes(g));
    }
    ps.add_task(op.stream, seconds, std::vector<int>(op.deps.begin(), op.deps.end()),
                op.label());
  }
  return ps;
}

// The op_cost.h attention formulas are linear in the head count, so
// whole-sequence shapes are priced for one head and scaled in double (an
// int64 count over all heads at once can overflow at these lengths).
kernels::AttnDims one_head(std::int64_t sq, std::int64_t sk, std::int64_t dh) {
  return kernels::AttnDims{sq, sk, 1, 1, dh, 1};
}

}  // namespace

LayerGemmFlops layer_gemm_flops(const nn::ModelConfig& cfg, std::int64_t rows) {
  const std::int64_t d = cfg.d_model;
  const std::int64_t kv = cfg.n_kv_head * cfg.head_dim();
  LayerGemmFlops f;
  f.qkv = kernels::gemm_nt_cost(rows, d, d + 2 * kv).flops;
  f.out = kernels::gemm_nt_cost(rows, d, d).flops;
  f.ffn_in = (cfg.arch == nn::Arch::kLlama ? 2 : 1) *
             kernels::gemm_nt_cost(rows, d, cfg.ffn_hidden).flops;
  f.ffn_out = kernels::gemm_nt_cost(rows, cfg.ffn_hidden, d).flops;
  return f;
}

ChunkGeometry chunk_geometry(const nn::ModelConfig& cfg, int world, std::int64_t s_local,
                             std::int64_t u) {
  FPDT_CHECK_EQ(s_local % u, 0) << " chunking divisibility";
  ChunkGeometry g;
  g.c_local = s_local / u;
  g.c_global = g.c_local * world;
  g.d_model = cfg.d_model;
  g.heads = std::max<std::int64_t>(1, cfg.n_head / world);
  g.kv_heads = std::max<std::int64_t>(1, cfg.n_kv_head / world);
  g.head_dim = cfg.head_dim();
  return g;
}

std::int64_t op_flops(const nn::ModelConfig& cfg, const ChunkGeometry& g, const ScheduleOp& op) {
  const kernels::AttnDims dm{g.c_global, g.c_global, g.heads, g.kv_heads, g.head_dim,
                             std::max<std::int64_t>(1, g.heads / g.kv_heads)};
  const std::int64_t q_pos0 = op.i * g.c_global;
  const std::int64_t k_pos0 = op.j * g.c_global;
  const LayerGemmFlops gemm = layer_gemm_flops(cfg, g.c_local);
  switch (op.kind) {
    case OpKind::kQkvProject:
      return gemm.qkv;
    case OpKind::kAttnStep:
      return kernels::online_attn_step_cost(dm, /*causal=*/true, q_pos0, k_pos0).flops;
    case OpKind::kOutProjFfn:
      return gemm.out + gemm.ffn();
    case OpKind::kFfnBackward:
      // Recompute of the input side's activations, then input and weight
      // gradients of every FFN matrix.
      return gemm.ffn_in + 2 * gemm.ffn();
    case OpKind::kOutProjBackward:
      return 2 * gemm.out;
    case OpKind::kAttnBwdStep:
      return kernels::online_attn_backward_step_cost(dm, /*causal=*/true, q_pos0, k_pos0).flops;
    case OpKind::kQkvBackward:
      return 2 * gemm.qkv;
    default:
      return 0;
  }
}

LayerTiming fpdt_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                              std::int64_t s_local, std::int64_t u, bool offload,
                              bool double_buffer, bool cache_fwd_outputs) {
  const ChunkGeometry g = chunk_geometry(cfg, cm.world(), s_local, u);
  PipelineSim fwd = schedule_sim(
      ChunkSchedule::forward(u, offload, double_buffer, cache_fwd_outputs), cfg, cm, g);
  PipelineSim bwd = schedule_sim(
      ChunkSchedule::backward(u, offload, double_buffer, /*recompute=*/!cache_fwd_outputs), cfg,
      cm, g);
  LayerTiming t;
  t.forward_s = fwd.run();
  t.backward_s = bwd.run();
  auto busy = [&](int r) { return fwd.resource_busy(r) + bwd.resource_busy(r); };
  t.compute_busy_s = busy(core::kStreamCompute);
  t.h2d_busy_s = busy(core::kStreamH2D);
  t.d2h_busy_s = busy(core::kStreamD2H);
  t.comm_busy_s = busy(core::kStreamComm);
  return t;
}

PipelineSim build_fpdt_forward_sim(const nn::ModelConfig& cfg, const CostModel& cm,
                                   std::int64_t s_local, std::int64_t u, bool offload,
                                   bool double_buffer, bool caching) {
  PipelineSim ps = schedule_sim(ChunkSchedule::forward(u, offload, double_buffer, caching), cfg,
                                cm, chunk_geometry(cfg, cm.world(), s_local, u));
  ps.run();
  return ps;
}

LayerTiming ulysses_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                                 std::int64_t s_local) {
  // Single chunk, no offload, and the generic activation-checkpoint
  // recompute in backward.
  return fpdt_layer_timing(cfg, cm, s_local, /*u=*/1, /*offload=*/false,
                           /*double_buffer=*/false, /*cache_fwd_outputs=*/false);
}

LayerTiming megatron_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                                  std::int64_t s_local, bool seq_parallel,
                                  bool activation_checkpoint) {
  const int P = cm.world();
  const std::int64_t s = s_local * (seq_parallel ? P : 1);  // full sequence per rank

  // TP GEMMs are 1/P of the full layer; attention runs h/P heads over the
  // full causal sequence. Collectives are exposed (not overlapped) — the
  // property that hurts Megatron-SP across nodes (§5.2).
  const double gemm_fwd = static_cast<double>(layer_gemm_flops(cfg, s).total()) / P;
  const kernels::AttnDims head = one_head(s, s, cfg.head_dim());
  const auto heads = static_cast<double>(std::max<std::int64_t>(1, cfg.n_head / P));
  const double attn_fwd =
      heads * static_cast<double>(kernels::attn_forward_cost(head, true, 0, 0).flops);
  const double attn_bwd = heads * static_cast<double>(
                                      kernels::online_attn_backward_step_cost(head, true, 0, 0).flops);
  const std::int64_t act_bytes = s * cfg.d_model * kBf16;

  double comm_fwd = 0.0;
  if (P > 1) {
    comm_fwd = seq_parallel
                   ? 2.0 * (cm.allgather_time(act_bytes) + cm.reduce_scatter_time(act_bytes))
                   : 2.0 * cm.allreduce_time(act_bytes);
  }
  LayerTiming t;
  t.forward_s = cm.gemm_time(gemm_fwd) + cm.attn_time(attn_fwd) + comm_fwd;
  const double recompute = activation_checkpoint ? t.forward_s : 0.0;
  t.backward_s = recompute + cm.gemm_time(2.0 * gemm_fwd) + cm.attn_time(attn_bwd) +
                 comm_fwd;  // mirrored collectives
  t.compute_busy_s = cm.gemm_time(gemm_fwd * (activation_checkpoint ? 4.0 : 3.0)) +
                     cm.attn_time(attn_fwd * (activation_checkpoint ? 2.0 : 1.0) + attn_bwd);
  t.comm_busy_s = comm_fwd * (activation_checkpoint ? 3.0 : 2.0);
  return t;
}

LayerTiming ring_layer_timing(const nn::ModelConfig& cfg, const CostModel& cm,
                              std::int64_t s_local) {
  const int P = cm.world();
  // P rounds; each round the critical rank computes a full (s_local,
  // s_local) block over all heads (causal imbalance: the last rank is never
  // masked), and the KV block transfer overlaps compute.
  const kernels::AttnDims block = one_head(s_local, s_local, cfg.head_dim());
  const auto heads = static_cast<double>(cfg.n_head);
  const double fwd_flops =
      heads * static_cast<double>(kernels::online_attn_step_cost(block, false, 0, 0).flops);
  const double bwd_flops = heads * static_cast<double>(
                                       kernels::online_attn_backward_step_cost(block, false, 0, 0).flops);
  const std::int64_t kv_block_bytes = 2 * s_local * cfg.n_kv_head * cfg.head_dim() * kBf16;
  const auto gemm = static_cast<double>(layer_gemm_flops(cfg, s_local).total());
  LayerTiming t;
  t.forward_s =
      cm.gemm_time(gemm) + P * std::max(cm.attn_time(fwd_flops), cm.p2p_time(kv_block_bytes));
  t.backward_s = t.forward_s + cm.gemm_time(2.0 * gemm) +
                 P * std::max(cm.attn_time(bwd_flops), cm.p2p_time(kv_block_bytes));
  t.compute_busy_s = t.forward_s + t.backward_s;
  return t;
}

StepEstimate step_estimate(const nn::ModelConfig& cfg, const CostModel& cm,
                           std::int64_t s_global, const LayerTiming& layer, bool chunked_head) {
  const std::int64_t s_local = s_global / cm.world();
  // Loss head + embedding: 3 fused GEMM passes over [s_local, d]×[d, V].
  // The unchunked baseline head runs in FP32 (§5.4) at roughly half the
  // BF16 tensor-core throughput.
  const double head_flops = 6.0 * static_cast<double>(s_local) *
                            static_cast<double>(cfg.d_model) * static_cast<double>(cfg.vocab);
  StepEstimate est;
  const double head_time =
      chunked_head ? cm.gemm_time(head_flops) : 2.0 * cm.gemm_time(head_flops);
  est.step_s = layer.total() * static_cast<double>(cfg.n_layer) + head_time;
  const double useful =
      cfg.train_flops_per_token(s_global) * static_cast<double>(s_global) /
      static_cast<double>(cm.world());
  est.mfu = useful / (est.step_s * cm.hw().peak_flops);
  return est;
}

}  // namespace fpdt::sim
