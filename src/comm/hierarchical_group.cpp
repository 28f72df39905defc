#include "comm/hierarchical_group.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace fpdt::comm {

HierarchicalProcessGroup::HierarchicalProcessGroup(topo::Topology topo)
    : ProcessGroup(topo.world()), topo_(std::move(topo)) {
  const int N = topo_.nodes();
  const int R = topo_.ranks_per_node();
  intra_.reserve(static_cast<std::size_t>(N));
  for (int n = 0; n < N; ++n) {
    intra_.push_back(std::make_unique<GroupView>(*this, topo_.node_members(n), /*draw_faults=*/false));
  }
  inter_.reserve(static_cast<std::size_t>(R));
  for (int jl = 0; jl < R; ++jl) {
    inter_.push_back(std::make_unique<GroupView>(*this, topo_.cross_node_members(jl), /*draw_faults=*/false));
  }
}

topo::LinkStats HierarchicalProcessGroup::link_stats() const {
  std::lock_guard<std::mutex> lock(link_mutex_);
  return link_;
}

void HierarchicalProcessGroup::reset_link_stats() {
  std::lock_guard<std::mutex> lock(link_mutex_);
  link_ = topo::LinkStats{};
}

double HierarchicalProcessGroup::charge_phase(topo::LinkClass cls, std::int64_t bytes,
                                              int flows, const char* name) const {
  if (bytes <= 0) return 0.0;
  const std::int64_t per_flow = bytes / world_size();
  const double busy = topo_.phase_time(cls, per_flow, flows);
  {
    std::lock_guard<std::mutex> lock(link_mutex_);
    if (cls == topo::LinkClass::kIntra) {
      link_.intra_bytes += bytes;
      link_.intra_phases += 1;
      link_.intra_busy_s += busy;
      if (flows > link_.max_intra_flows) link_.max_intra_flows = flows;
    } else {
      link_.inter_bytes += bytes;
      link_.inter_phases += 1;
      link_.inter_busy_s += busy;
      if (flows > link_.max_inter_flows) link_.max_inter_flows = flows;
    }
  }
  if (obs::tracing_enabled()) {
    obs::Tracer::instance().instant(obs::kCatComm, name, obs::kNodeRank, "comm",
                                    static_cast<double>(bytes), true);
  }
  return busy;
}

double HierarchicalProcessGroup::charge_reduction(std::int64_t delta, const char* name) const {
  if (delta <= 0) return 0.0;
  const int P = world_size();
  const int R = topo_.ranks_per_node();
  const int N = topo_.nodes();
  if (N == 1) return charge_phase(topo::LinkClass::kIntra, delta, R, name);
  // Two-phase reduction transport: the node-local phase moves (R-1)/R of the
  // payload per rank, the cross-node phase (N-1)/(N·R); together exactly the
  // flat ring's (P-1)/P, so splitting `delta` by those ratios conserves it.
  const double intra_share =
      (static_cast<double>(P) * (R - 1)) / (static_cast<double>(R) * (P - 1));
  const auto intra = static_cast<std::int64_t>(std::llround(delta * intra_share));
  return charge_phase(topo::LinkClass::kIntra, intra, R, name) +
         charge_phase(topo::LinkClass::kInter, delta - intra, R, name);
}

std::vector<Tensor> HierarchicalProcessGroup::all_to_all_heads_to_seq(
    std::span<const Tensor> local) const {
  const int P = world_size();
  const int R = topo_.ranks_per_node();
  const int N = topo_.nodes();
  guard("a2a_heads_to_seq");
  FPDT_CHECK_EQ(static_cast<int>(local.size()), P) << " all_to_all input count";
  const std::int64_t s_local = local[0].dim(0);
  const std::int64_t h_global = local[0].dim(1);
  const std::int64_t d = local[0].dim(2);
  FPDT_CHECK_EQ(h_global % P, 0) << " heads must divide world size";

  // Phase 1 (inter): each stride-R cross-node group re-shards at node
  // granularity — rank (n, jl) ends with node-level head block n over the
  // group's full sequence, pieces in node order.
  std::vector<Tensor> mid(static_cast<std::size_t>(P));
  std::int64_t before = stats().all_to_all_bytes;
  for (int jl = 0; jl < R; ++jl) {
    std::vector<Tensor> in;
    in.reserve(static_cast<std::size_t>(N));
    for (int n = 0; n < N; ++n) in.push_back(local[static_cast<std::size_t>(topo_.rank_of(n, jl))]);
    std::vector<Tensor> out = inter_[static_cast<std::size_t>(jl)]->all_to_all_heads_to_seq(in);
    for (int n = 0; n < N; ++n) mid[static_cast<std::size_t>(topo_.rank_of(n, jl))] = std::move(out[static_cast<std::size_t>(n)]);
  }
  double busy =
      charge_phase(topo::LinkClass::kInter, stats().all_to_all_bytes - before, R, "hier.a2a.inter");

  // Phase 2 (intra): each node refines its node-level head block to per-rank
  // heads over NVLink.
  before = stats().all_to_all_bytes;
  std::vector<Tensor> composed(static_cast<std::size_t>(P));
  for (int n = 0; n < N; ++n) {
    std::vector<Tensor> in;
    in.reserve(static_cast<std::size_t>(R));
    for (int jl = 0; jl < R; ++jl) in.push_back(mid[static_cast<std::size_t>(topo_.rank_of(n, jl))]);
    std::vector<Tensor> out = intra_[static_cast<std::size_t>(n)]->all_to_all_heads_to_seq(in);
    for (int jl = 0; jl < R; ++jl) composed[static_cast<std::size_t>(topo_.rank_of(n, jl))] = std::move(out[static_cast<std::size_t>(jl)]);
  }
  busy +=
      charge_phase(topo::LinkClass::kIntra, stats().all_to_all_bytes - before, R, "hier.a2a.intra");
  charge_cost({"a2a heads_to_seq", 0, busy});

  // Phase 3 (local): the composed sequence blocks land local-major (outer
  // local ordinal, inner node); the flat contract is node-major (rank
  // order). Pure memory shuffle — no link traffic to charge.
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  const std::int64_t h_local = h_global / P;
  for (int r = 0; r < P; ++r) {
    const Tensor& src = composed[static_cast<std::size_t>(r)];
    Tensor dst({P * s_local, h_local, d});
    for (int n = 0; n < N; ++n) {
      for (int jl = 0; jl < R; ++jl) {
        const std::int64_t to = static_cast<std::int64_t>(n) * R + jl;
        const std::int64_t from = static_cast<std::int64_t>(jl) * N + n;
        Tensor block = dst.slice0(to * s_local, (to + 1) * s_local);
        block.copy_from(src.slice0(from * s_local, (from + 1) * s_local));
      }
    }
    out.push_back(std::move(dst));
  }
  return out;
}

std::vector<Tensor> HierarchicalProcessGroup::all_to_all_seq_to_heads(
    std::span<const Tensor> global) const {
  const int P = world_size();
  const int R = topo_.ranks_per_node();
  const int N = topo_.nodes();
  guard("a2a_seq_to_heads");
  FPDT_CHECK_EQ(static_cast<int>(global.size()), P) << " all_to_all input count";
  const std::int64_t s_global = global[0].dim(0);
  const std::int64_t h_local = global[0].dim(1);
  const std::int64_t d = global[0].dim(2);
  FPDT_CHECK_EQ(s_global % P, 0) << " sequence must divide world size";
  const std::int64_t s_local = s_global / P;

  // Exact inverse of heads_to_seq: undo the block permutation, then the
  // intra phase, then the inter phase.
  std::vector<Tensor> perm;
  perm.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const Tensor& src = global[static_cast<std::size_t>(r)];
    Tensor dst({s_global, h_local, d});
    for (int n = 0; n < N; ++n) {
      for (int jl = 0; jl < R; ++jl) {
        const std::int64_t to = static_cast<std::int64_t>(jl) * N + n;
        const std::int64_t from = static_cast<std::int64_t>(n) * R + jl;
        Tensor block = dst.slice0(to * s_local, (to + 1) * s_local);
        block.copy_from(src.slice0(from * s_local, (from + 1) * s_local));
      }
    }
    perm.push_back(std::move(dst));
  }

  std::int64_t before = stats().all_to_all_bytes;
  std::vector<Tensor> mid(static_cast<std::size_t>(P));
  for (int n = 0; n < N; ++n) {
    std::vector<Tensor> in;
    in.reserve(static_cast<std::size_t>(R));
    for (int jl = 0; jl < R; ++jl) in.push_back(perm[static_cast<std::size_t>(topo_.rank_of(n, jl))]);
    std::vector<Tensor> out = intra_[static_cast<std::size_t>(n)]->all_to_all_seq_to_heads(in);
    for (int jl = 0; jl < R; ++jl) mid[static_cast<std::size_t>(topo_.rank_of(n, jl))] = std::move(out[static_cast<std::size_t>(jl)]);
  }
  double busy =
      charge_phase(topo::LinkClass::kIntra, stats().all_to_all_bytes - before, R, "hier.a2a.intra");

  before = stats().all_to_all_bytes;
  std::vector<Tensor> result(static_cast<std::size_t>(P));
  for (int jl = 0; jl < R; ++jl) {
    std::vector<Tensor> in;
    in.reserve(static_cast<std::size_t>(N));
    for (int n = 0; n < N; ++n) in.push_back(mid[static_cast<std::size_t>(topo_.rank_of(n, jl))]);
    std::vector<Tensor> out = inter_[static_cast<std::size_t>(jl)]->all_to_all_seq_to_heads(in);
    for (int n = 0; n < N; ++n) result[static_cast<std::size_t>(topo_.rank_of(n, jl))] = std::move(out[static_cast<std::size_t>(n)]);
  }
  busy +=
      charge_phase(topo::LinkClass::kInter, stats().all_to_all_bytes - before, R, "hier.a2a.inter");
  charge_cost({"a2a seq_to_heads", 0, busy});

  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) out.push_back(std::move(result[static_cast<std::size_t>(r)]));
  return out;
}

std::vector<Tensor> HierarchicalProcessGroup::all_gather(std::span<const Tensor> local) const {
  const int P = world_size();
  const int R = topo_.ranks_per_node();
  const int N = topo_.nodes();
  guard("all_gather");
  FPDT_CHECK_EQ(static_cast<int>(local.size()), P) << " all_gather input count";

  // Phase 1 (intra): every rank materialises its node's slab — the concat of
  // the node's shards in local-ordinal (= global-rank) order.
  std::int64_t before = stats().all_gather_bytes;
  std::vector<Tensor> slab(static_cast<std::size_t>(P));
  for (int n = 0; n < N; ++n) {
    std::vector<Tensor> in;
    in.reserve(static_cast<std::size_t>(R));
    for (int jl = 0; jl < R; ++jl) in.push_back(local[static_cast<std::size_t>(topo_.rank_of(n, jl))]);
    std::vector<Tensor> out = intra_[static_cast<std::size_t>(n)]->all_gather(in);
    for (int jl = 0; jl < R; ++jl) slab[static_cast<std::size_t>(topo_.rank_of(n, jl))] = std::move(out[static_cast<std::size_t>(jl)]);
  }
  double busy = charge_phase(topo::LinkClass::kIntra, stats().all_gather_bytes - before, R,
                             "hier.all_gather.intra");

  // Phase 2 (inter): gather the slabs in node order. Node-major placement
  // makes the slab concat equal the flat rank-order concat, bitwise.
  before = stats().all_gather_bytes;
  std::vector<Tensor> full(static_cast<std::size_t>(P));
  for (int jl = 0; jl < R; ++jl) {
    std::vector<Tensor> in;
    in.reserve(static_cast<std::size_t>(N));
    for (int n = 0; n < N; ++n) in.push_back(slab[static_cast<std::size_t>(topo_.rank_of(n, jl))]);
    std::vector<Tensor> out = inter_[static_cast<std::size_t>(jl)]->all_gather(in);
    for (int n = 0; n < N; ++n) full[static_cast<std::size_t>(topo_.rank_of(n, jl))] = std::move(out[static_cast<std::size_t>(n)]);
  }
  busy += charge_phase(topo::LinkClass::kInter, stats().all_gather_bytes - before, R,
                       "hier.all_gather.inter");
  charge_cost({"all_gather", 0, busy});
  return full;
}

std::vector<Tensor> HierarchicalProcessGroup::reduce_scatter(std::span<const Tensor> full) const {
  // Bit-identity contract: summation stays in flat sequential rank order
  // (float addition is not associative; an intra-first tree would change the
  // result). The hierarchy re-prices the transport only.
  const std::int64_t before = stats().reduce_scatter_bytes;
  std::vector<Tensor> out = ProcessGroup::reduce_scatter(full);
  charge_cost({"reduce_scatter", 0, charge_reduction(stats().reduce_scatter_bytes - before,
                                                     "hier.reduce_scatter")});
  return out;
}

std::vector<Tensor> HierarchicalProcessGroup::all_reduce(std::span<const Tensor> local) const {
  // Same flat-order math as reduce_scatter; the reduce-scatter + all-gather
  // transport decomposition splits intra/inter in the same proportions.
  const std::int64_t before = stats().all_reduce_bytes;
  std::vector<Tensor> out = ProcessGroup::all_reduce(local);
  charge_cost({"all_reduce", 0, charge_reduction(stats().all_reduce_bytes - before,
                                                 "hier.all_reduce")});
  return out;
}

std::vector<Tensor> HierarchicalProcessGroup::ring_shift(std::span<const Tensor> local) const {
  const int P = world_size();
  const int R = topo_.ranks_per_node();
  const int N = topo_.nodes();
  const std::int64_t before = stats().p2p_bytes;
  std::vector<Tensor> out = ProcessGroup::ring_shift(local);
  const std::int64_t delta = stats().p2p_bytes - before;
  if (N == 1) {
    charge_cost({"ring_shift", 0, charge_phase(topo::LinkClass::kIntra, delta,
                                               R > 1 ? R - 1 : 1, "hier.ring.intra")});
    return out;
  }
  // Rank r -> r+1 stays on-node except at node boundaries: P - N NVLink
  // hops, N IB hops (one per HCA — the only uncontended inter pattern).
  const std::int64_t intra = delta * (P - N) / P;
  const double busy =
      charge_phase(topo::LinkClass::kIntra, intra, R > 1 ? R - 1 : 1, "hier.ring.intra") +
      charge_phase(topo::LinkClass::kInter, delta - intra, 1, "hier.ring.inter");
  charge_cost({"ring_shift", 0, busy});
  return out;
}

}  // namespace fpdt::comm
