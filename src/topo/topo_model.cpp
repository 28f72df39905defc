#include "topo/topo_model.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "kernels/op_cost.h"
#include "sim/cost_model.h"
#include "sim/pipeline_sim.h"
#include "sim/timeline.h"

namespace fpdt::topo {

TopoEval model_step(const Topology& topo, const sim::HardwareSpec& hw,
                    const TopoModelOptions& opt, bool hierarchical) {
  const int P = topo.world();
  const int R = topo.ranks_per_node();
  const int N = topo.nodes();
  const nn::ModelConfig& m = opt.model;
  FPDT_CHECK_GE(m.n_layer, 1) << " topo model layers";
  const std::int64_t s_local = opt.ctx_per_gpu;
  const std::int64_t s_global = static_cast<std::int64_t>(P) * s_local;
  const std::int64_t u = std::max<std::int64_t>(1, opt.chunks_per_rank);
  const std::int64_t c_local = std::max<std::int64_t>(1, s_local / u);
  const double d = static_cast<double>(m.d_model);

  sim::CostModel cm(hw, P);

  // Per-rank, per-chunk compute from the kernels' FLOP formulas
  // (kernels/op_cost.h): the layer's GEMMs over the c_local chunk rows, and
  // chunk q's causal online-softmax steps against kv chunks 0..q over the
  // gathered c_global rows. Attention is priced per head and scaled by this
  // rank's head share n_head / P, which may be fractional at 1024 ranks —
  // identical under both routings, because the 2D grid re-routes the
  // traffic, not the math.
  const std::int64_t c_global = c_local * P;
  const sim::LayerGemmFlops gemm = sim::layer_gemm_flops(m, c_local);
  const kernels::AttnDims head{c_global, c_global, 1, 1, m.head_dim(), 1};
  const double head_share = static_cast<double>(m.n_head) / P;
  auto attn_flops = [&](std::int64_t q) {
    double flops = 0.0;
    for (std::int64_t j = 0; j <= q; ++j) {
      flops += static_cast<double>(
          kernels::online_attn_step_cost(head, /*causal=*/true, q * c_global, j * c_global).flops);
    }
    return flops * head_share;
  };

  // Per-chunk All2All payload per rank (QKV out + attention output return),
  // logical BF16 bytes — what the executed ProcessGroup charges per rank.
  const double a2a_chunk_bytes = 4.0 * static_cast<double>(c_local) * d * 2.0;

  sim::PipelineSim sim;
  const int rc = sim.add_resource("compute");
  const int ri = sim.add_resource("intra");
  const int rx = sim.add_resource("inter");

  for (std::int64_t q = 0; q < u; ++q) {
    const std::string qs = std::to_string(q);
    const int proj =
        sim.add_task(rc, cm.gemm_time(static_cast<double>(gemm.qkv + gemm.out)), {}, "proj." + qs);
    const double attn_q = attn_flops(q);
    std::int64_t attn_tail = -1;
    if (!hierarchical) {
      // Flat Ulysses re-shard: (R-1)/P of the payload stays on-node, the
      // rest funnels through the shared HCA — on the critical path.
      const auto intra_bytes =
          static_cast<std::int64_t>(a2a_chunk_bytes * (R - 1) / static_cast<double>(P));
      const auto inter_bytes =
          static_cast<std::int64_t>(a2a_chunk_bytes * (P - R) / static_cast<double>(P));
      std::vector<int> attn_deps;
      attn_deps.push_back(
          sim.add_task(ri, topo.phase_time(LinkClass::kIntra, intra_bytes, R), {proj},
                       "a2a.intra." + qs));
      if (inter_bytes > 0) {
        attn_deps.push_back(
            sim.add_task(rx, topo.phase_time(LinkClass::kInter, inter_bytes, R), {proj},
                         "a2a.inter." + qs));
      }
      attn_tail = sim.add_task(rc, cm.attn_time(attn_q), attn_deps, "attn." + qs);
    } else {
      // 2D grid: the head-dimension All2All never leaves the node; the
      // sequence axis ring-streams each node's new KV shard over IB,
      // overlapped with the per-shard attention compute.
      const auto intra_bytes =
          static_cast<std::int64_t>(a2a_chunk_bytes * (R - 1) / static_cast<double>(R));
      const int a2a = sim.add_task(ri, topo.phase_time(LinkClass::kIntra, intra_bytes, R),
                                   {proj}, "a2a.head." + qs);
      // Per-rank KV shard of this chunk from one remote node: 2 tensors of
      // R*c_local tokens at head width d/R, BF16.
      const auto kv_bytes = static_cast<std::int64_t>(
          2.0 * static_cast<double>(R) * static_cast<double>(c_local) * (d / R) * 2.0);
      int prev = a2a;
      for (int j = 0; j < N; ++j) {
        std::vector<int> deps{a2a, prev};
        if (j > 0) {
          deps.push_back(sim.add_task(rx, topo.phase_time(LinkClass::kInter, kv_bytes, R),
                                      {proj}, "kv.ring." + qs + "." + std::to_string(j)));
        }
        prev = sim.add_task(rc, cm.attn_time(attn_q / static_cast<double>(N)), deps,
                            "attn." + qs + "." + std::to_string(j));
      }
      attn_tail = prev;
    }
    sim.add_task(rc, cm.gemm_time(static_cast<double>(gemm.ffn())),
                 {static_cast<int>(attn_tail)}, "ffn." + qs);
  }

  TopoEval ev;
  ev.layer_fwd_s = sim.run();
  ev.intra_busy_s = sim.resource_busy(ri);
  ev.inter_busy_s = sim.resource_busy(rx);
  ev.inter_util = ev.layer_fwd_s > 0.0 ? ev.inter_busy_s / ev.layer_fwd_s : 0.0;
  ev.step_s =
      static_cast<double>(m.n_layer) * ev.layer_fwd_s * (1.0 + opt.backward_multiplier);
  const double step_flops =
      m.train_flops_per_token(s_global) * static_cast<double>(s_global) / P;
  if (ev.step_s > 0.0) ev.mfu = step_flops / (ev.step_s * hw.peak_flops);
  return ev;
}

std::vector<ScalingRow> weak_scaling(const sim::HardwareSpec& hw, int ranks_lo, int ranks_hi,
                                     const TopoModelOptions& opt) {
  FPDT_CHECK_GE(ranks_lo, 1) << " weak scaling ranks";
  FPDT_CHECK_GE(ranks_hi, ranks_lo) << " weak scaling range";
  std::vector<ScalingRow> rows;
  for (std::int64_t w = ranks_lo; w <= ranks_hi; w *= 2) {
    const Topology topo = Topology::from_hardware(hw, static_cast<int>(w));
    const TopoEval flat = model_step(topo, hw, opt, /*hierarchical=*/false);
    const TopoEval hier = model_step(topo, hw, opt, /*hierarchical=*/true);
    ScalingRow row;
    row.gpus = static_cast<int>(w);
    row.nodes = topo.nodes();
    row.seq_global = w * opt.ctx_per_gpu;
    row.flat_step_s = flat.step_s;
    row.hier_step_s = hier.step_s;
    row.speedup = hier.step_s > 0.0 ? flat.step_s / hier.step_s : 0.0;
    row.flat_mfu = flat.mfu;
    row.hier_mfu = hier.mfu;
    row.flat_inter_util = flat.inter_util;
    row.hier_inter_util = hier.inter_util;
    rows.push_back(row);
  }
  return rows;
}

std::string scaling_csv(const std::vector<ScalingRow>& rows) {
  std::ostringstream os;
  os << "gpus,nodes,seq_global,flat_step_s,hier_step_s,speedup,flat_mfu,hier_mfu,"
        "flat_inter_util,hier_inter_util\n";
  os.precision(6);
  for (const ScalingRow& r : rows) {
    os << r.gpus << ',' << r.nodes << ',' << r.seq_global << ',' << r.flat_step_s << ','
       << r.hier_step_s << ',' << r.speedup << ',' << r.flat_mfu << ',' << r.hier_mfu << ','
       << r.flat_inter_util << ',' << r.hier_inter_util << '\n';
  }
  return os.str();
}

namespace {

bool fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

bool check_weak_scaling(const std::vector<ScalingRow>& rows, const sim::HardwareSpec& hw,
                        std::int64_t ctx_per_gpu, std::string* why) {
  if (rows.empty()) return fail(why, "no rows");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    const std::string at = "row " + std::to_string(i) + " (gpus " + std::to_string(r.gpus) + ")";
    if (r.gpus < 1 || r.nodes < 1) return fail(why, at + ": bad geometry");
    if (i > 0 && r.gpus != rows[i - 1].gpus * 2) {
      return fail(why, at + ": gpus not doubling");
    }
    if (r.seq_global != static_cast<std::int64_t>(r.gpus) * ctx_per_gpu) {
      return fail(why, at + ": seq_global != gpus * ctx_per_gpu (not weak scaling)");
    }
    if (!finite_positive(r.flat_step_s) || !finite_positive(r.hier_step_s)) {
      return fail(why, at + ": non-positive step time");
    }
    if (!(r.flat_mfu > 0.0 && r.flat_mfu <= 1.0) || !(r.hier_mfu > 0.0 && r.hier_mfu <= 1.0)) {
      return fail(why, at + ": MFU outside (0, 1]");
    }
    if (!(r.flat_inter_util >= 0.0 && r.flat_inter_util <= 1.0) ||
        !(r.hier_inter_util >= 0.0 && r.hier_inter_util <= 1.0)) {
      return fail(why, at + ": inter-link utilization outside [0, 1]");
    }
    const double expect_speedup = r.flat_step_s / r.hier_step_s;
    if (std::abs(r.speedup - expect_speedup) > 1e-9 * expect_speedup) {
      return fail(why, at + ": speedup inconsistent with step times");
    }
    // The acceptance contract: on any multi-node world with a slower
    // inter-node link, the hierarchical routing must strictly win.
    if (r.nodes > 1 && hw.ib_bw < hw.nvlink_bw && !(r.hier_step_s < r.flat_step_s)) {
      return fail(why, at + ": hierarchical does not strictly beat flat");
    }
  }
  return true;
}

}  // namespace fpdt::topo
