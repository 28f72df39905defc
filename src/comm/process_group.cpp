#include "comm/process_group.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "obs/trace.h"

namespace fpdt::comm {

const char* errc_name(CommErrc code) {
  switch (code) {
    case CommErrc::kOk: return "ok";
    case CommErrc::kRankLost: return "ranklost";
    case CommErrc::kPartitioned: return "partitioned";
    case CommErrc::kAborted: return "aborted";
  }
  return "unknown";
}

std::string CommResult::to_string() const {
  std::string s = errc_name(code);
  if (rank >= 0) s += " rank=" + std::to_string(rank);
  if (!detail.empty()) s += " (" + detail + ")";
  return s;
}

ProcessGroup::ProcessGroup(int world_size) : ProcessGroup(world_size, /*draw_faults=*/true) {}

ProcessGroup::ProcessGroup(int world_size, bool draw_faults)
    : world_size_(world_size), draw_faults_(draw_faults) {
  FPDT_CHECK_GE(world_size, 1) << " process group size";
}

CommStats ProcessGroup::stats() const {
  CommStats s;
  s.all_to_all_bytes = stats_.all_to_all.load(std::memory_order_relaxed);
  s.all_gather_bytes = stats_.all_gather.load(std::memory_order_relaxed);
  s.reduce_scatter_bytes = stats_.reduce_scatter.load(std::memory_order_relaxed);
  s.all_reduce_bytes = stats_.all_reduce.load(std::memory_order_relaxed);
  s.p2p_bytes = stats_.p2p.load(std::memory_order_relaxed);
  return s;
}

void ProcessGroup::reset_stats() {
  stats_.all_to_all.store(0, std::memory_order_relaxed);
  stats_.all_gather.store(0, std::memory_order_relaxed);
  stats_.reduce_scatter.store(0, std::memory_order_relaxed);
  stats_.all_reduce.store(0, std::memory_order_relaxed);
  stats_.p2p.store(0, std::memory_order_relaxed);
}

namespace {

// Copies head block [h_begin, h_end) of src [s, h, d] into dst [s, h_end-h_begin, d].
void copy_head_block(const Tensor& src, std::int64_t h_begin, std::int64_t h_end, Tensor& dst) {
  const std::int64_t s = src.dim(0);
  const std::int64_t h = src.dim(1);
  const std::int64_t d = src.dim(2);
  const std::int64_t hb = h_end - h_begin;
  const float* sp = src.data();
  float* dp = dst.data();
  for (std::int64_t t = 0; t < s; ++t) {
    std::memcpy(dp + t * hb * d, sp + (t * h + h_begin) * d,
                static_cast<std::size_t>(hb * d) * sizeof(float));
  }
}

// Copies src [s, hb, d] into dst [s, h, d] at head offset h_begin.
void paste_head_block(const Tensor& src, Tensor& dst, std::int64_t h_begin) {
  const std::int64_t s = src.dim(0);
  const std::int64_t hb = src.dim(1);
  const std::int64_t d = src.dim(2);
  const std::int64_t h = dst.dim(1);
  const float* sp = src.data();
  float* dp = dst.data();
  for (std::int64_t t = 0; t < s; ++t) {
    std::memcpy(dp + (t * h + h_begin) * d, sp + t * hb * d,
                static_cast<std::size_t>(hb * d) * sizeof(float));
  }
}

// Fault-injection point at the entry of every collective. The draw happens
// before any tensor math, and the math runs exactly once after the draws
// pass, so a recovered collective fault is invisible to results and byte
// stats. Collectives run once per group on the driver thread, hence rank -1
// (matches any rule rank pin).
//
// Membership churn draws come first and are not retryable at this layer —
// a dead rank does not come back because the collective is reissued, and a
// partitioned fabric fails every retry inside the step. Both surface as
// typed CommError (kRankLost names the victim; kPartitioned heals when the
// step is replayed, because a step-pinned netpart rule fires once).
// Exhausted transient retries — a real NCCL abort — surface as
// CommError{kAborted} for step-level recovery.
void survive_faults(const char* what, int world) {
  if (!fault::faults_enabled()) return;
  fault::FaultInjector& inj = fault::FaultInjector::instance();
  const int victim = inj.group_event(fault::Site::kRankLost, world - 1);
  if (victim >= 0) {
    throw CommError({CommErrc::kRankLost, victim, what});
  }
  if (inj.should_fail(fault::Site::kNetPart, -1)) {
    throw CommError({CommErrc::kPartitioned, -1, what});
  }
  const bool ok = fault::retry_transient(
      fault::BackoffPolicy{}, /*rank=*/-1, std::string("retry.") + what, [&] {
        inj.maybe_throw(fault::Site::kCollective, -1, what);
      });
  if (!ok) {
    throw CommError({CommErrc::kAborted, -1, std::string(what) + " failed after retries"});
  }
}

}  // namespace

void ProcessGroup::guard(const char* what) const {
  if (draw_faults_) survive_faults(what, world_size_);
}

// Emits one instant per participating rank (value = logical bytes that rank
// moved in this collective) plus a running "comm bytes" counter, so every
// rank's trace lane shows its collective traffic. A flat group with a cost
// sink hands the emission to the sink, which stamps each instant at the
// start of the span it priced; otherwise the instants land at each rank's
// current virtual clock. Collectives run once for the whole group, hence
// the per-rank loop.
void ProcessGroup::report_collective(const char* name, std::int64_t bytes_per_rank) const {
  CollectiveCost cost{name, bytes_per_rank};
  if (obs::tracing_enabled()) {
    const std::int64_t cumulative = stats().total() / world_size_;
    cost.trace = [name, bytes_per_rank, cumulative](int r, double start_s) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.instant_at(obs::kCatComm, name, r, "comm", start_s,
                        static_cast<double>(bytes_per_rank));
      tracer.counter(obs::kCatComm, "comm bytes", r, static_cast<double>(cumulative));
    };
  }
  if (topology() == nullptr && charge_cost(cost)) return;
  if (!cost.trace) return;
  for (int r = 0; r < world_size_; ++r) cost.trace(r, obs::Tracer::instance().clock(r));
}

bool ProcessGroup::charge_cost(const CollectiveCost& cost) const {
  // A single rank's "collective" is a local copy; it occupies no link.
  if (!cost_sink_ || world_size_ <= 1) return false;
  cost_sink_(cost);
  return true;
}

std::vector<Tensor> ProcessGroup::all_to_all_heads_to_seq(std::span<const Tensor> local) const {
  guard("a2a_heads_to_seq");
  const int P = world_size_;
  FPDT_CHECK_EQ(static_cast<int>(local.size()), P) << " all_to_all input count";
  const std::int64_t s_local = local[0].dim(0);
  const std::int64_t h_global = local[0].dim(1);
  const std::int64_t d = local[0].dim(2);
  FPDT_CHECK_EQ(h_global % P, 0) << " heads must divide world size";
  const std::int64_t h_local = h_global / P;
  for (const Tensor& t : local) {
    FPDT_CHECK(t.ndim() == 3 && t.dim(0) == s_local && t.dim(1) == h_global && t.dim(2) == d)
        << " ragged all_to_all input " << t.shape_str();
  }

  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  for (int dst = 0; dst < P; ++dst) {
    Tensor gathered({P * s_local, h_local, d});
    for (int src = 0; src < P; ++src) {
      // Rank `src` sends its head block `dst` to rank `dst`; pieces land in
      // rank order along the sequence dimension.
      Tensor piece = gathered.slice0(src * s_local, (src + 1) * s_local);
      copy_head_block(local[static_cast<std::size_t>(src)], dst * h_local, (dst + 1) * h_local,
                      piece);
    }
    out.push_back(std::move(gathered));
  }
  // Remote-destined bytes only: each rank keeps its own head block
  // (h_local of h_global); that local copy never touches a link.
  stats_.all_to_all.fetch_add(P * s_local * (h_global - h_local) * d * 2,  // logical BF16
                              std::memory_order_relaxed);
  report_collective("a2a heads_to_seq", s_local * (h_global - h_local) * d * 2);
  return out;
}

std::vector<Tensor> ProcessGroup::all_to_all_seq_to_heads(std::span<const Tensor> global) const {
  guard("a2a_seq_to_heads");
  const int P = world_size_;
  FPDT_CHECK_EQ(static_cast<int>(global.size()), P) << " all_to_all input count";
  const std::int64_t s_global = global[0].dim(0);
  const std::int64_t h_local = global[0].dim(1);
  const std::int64_t d = global[0].dim(2);
  FPDT_CHECK_EQ(s_global % P, 0) << " sequence must divide world size";
  const std::int64_t s_local = s_global / P;
  const std::int64_t h_global = h_local * P;

  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  for (int dst = 0; dst < P; ++dst) {
    Tensor scattered({s_local, h_global, d});
    for (int src = 0; src < P; ++src) {
      // Rank `src` holds heads [src*h_local, ...); its sequence piece `dst`
      // returns to rank `dst`.
      Tensor piece =
          global[static_cast<std::size_t>(src)].slice0(dst * s_local, (dst + 1) * s_local);
      paste_head_block(piece, scattered, src * h_local);
    }
    out.push_back(std::move(scattered));
  }
  // Remote-destined bytes only, mirroring heads_to_seq.
  stats_.all_to_all.fetch_add(P * s_local * (h_global - h_local) * d * 2,
                              std::memory_order_relaxed);
  report_collective("a2a seq_to_heads", s_local * (h_global - h_local) * d * 2);
  return out;
}

std::vector<Tensor> ProcessGroup::all_gather(std::span<const Tensor> local) const {
  guard("all_gather");
  const int P = world_size_;
  FPDT_CHECK_EQ(static_cast<int>(local.size()), P) << " all_gather input count";
  Tensor full = concat0(local);
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  out.push_back(std::move(full));
  for (int r = 1; r < P; ++r) out.push_back(out[0].clone());
  stats_.all_gather.fetch_add(out[0].numel() * 2 * (P - 1), std::memory_order_relaxed);
  report_collective("all_gather", out[0].numel() * 2 * (P - 1) / P);
  return out;
}

std::vector<Tensor> ProcessGroup::reduce_scatter(std::span<const Tensor> full) const {
  guard("reduce_scatter");
  const int P = world_size_;
  FPDT_CHECK_EQ(static_cast<int>(full.size()), P) << " reduce_scatter input count";
  Tensor sum = full[0].clone();
  for (int r = 1; r < P; ++r) add_(sum, full[static_cast<std::size_t>(r)]);
  FPDT_CHECK_EQ(sum.dim(0) % P, 0) << " reduce_scatter dim0";
  const std::int64_t shard = sum.dim(0) / P;
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) out.push_back(sum.slice0(r * shard, (r + 1) * shard).clone());
  stats_.reduce_scatter.fetch_add(sum.numel() * 2 * (P - 1) / P * P, std::memory_order_relaxed);
  report_collective("reduce_scatter", sum.numel() * 2 * (P - 1) / P);
  return out;
}

std::vector<Tensor> ProcessGroup::all_reduce(std::span<const Tensor> local) const {
  guard("all_reduce");
  const int P = world_size_;
  FPDT_CHECK_EQ(static_cast<int>(local.size()), P) << " all_reduce input count";
  Tensor sum = local[0].clone();
  for (int r = 1; r < P; ++r) add_(sum, local[static_cast<std::size_t>(r)]);
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) out.push_back(sum.clone());
  stats_.all_reduce.fetch_add(sum.numel() * 2 * 2 * (P - 1), std::memory_order_relaxed);
  report_collective("all_reduce", sum.numel() * 2 * 2 * (P - 1) / P);
  return out;
}

std::vector<Tensor> ProcessGroup::ring_shift(std::span<const Tensor> local) const {
  guard("ring_shift");
  const int P = world_size_;
  FPDT_CHECK_EQ(static_cast<int>(local.size()), P) << " ring_shift input count";
  std::vector<Tensor> out(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    out[static_cast<std::size_t>((r + 1) % P)] = local[static_cast<std::size_t>(r)].clone();
    stats_.p2p.fetch_add(local[static_cast<std::size_t>(r)].numel() * 2,
                         std::memory_order_relaxed);
  }
  report_collective("ring_shift", local[0].numel() * 2);
  return out;
}

// ---- GroupView -------------------------------------------------------------

namespace {

std::vector<int> checked_members(const ProcessGroup& parent, std::vector<int> members) {
  FPDT_CHECK_GE(members.size(), 1u) << " group view needs at least one member";
  std::sort(members.begin(), members.end());
  for (std::size_t i = 0; i < members.size(); ++i) {
    FPDT_CHECK(members[i] >= 0 && members[i] < parent.world_size())
        << " group view member " << members[i] << " outside world " << parent.world_size();
    if (i > 0) {
      FPDT_CHECK_NE(members[i], members[i - 1]) << " duplicate group view member";
    }
  }
  return members;
}

}  // namespace

GroupView::GroupView(ProcessGroup& parent, std::vector<int> members, bool draw_faults)
    : parent_(&parent),
      sub_(static_cast<int>(checked_members(parent, members).size()), draw_faults),
      members_(checked_members(parent, std::move(members))) {}

int GroupView::global_rank(int ordinal) const {
  FPDT_CHECK(ordinal >= 0 && ordinal < size()) << " group view ordinal " << ordinal;
  return members_[static_cast<std::size_t>(ordinal)];
}

bool GroupView::contains(int global_rank) const {
  return std::binary_search(members_.begin(), members_.end(), global_rank);
}

GroupView GroupView::subview(const std::vector<int>& ordinals) const {
  std::vector<int> globals;
  globals.reserve(ordinals.size());
  for (int o : ordinals) globals.push_back(global_rank(o));
  return GroupView(*parent_, std::move(globals));
}

// The sub-group moves the data (and draws faults, unless this view skips
// them) at size() ranks; its byte deltas are folded back into the parent's
// counters so fleet-level comm accounting includes survivor-only
// coordination traffic and hierarchical phase traffic alike.
std::vector<Tensor> GroupView::all_to_all_heads_to_seq(std::span<const Tensor> local) const {
  const std::int64_t before = sub_.stats().all_to_all_bytes;
  std::vector<Tensor> out = sub_.all_to_all_heads_to_seq(local);
  parent_->stats_.all_to_all.fetch_add(sub_.stats().all_to_all_bytes - before,
                                       std::memory_order_relaxed);
  return out;
}

std::vector<Tensor> GroupView::all_to_all_seq_to_heads(std::span<const Tensor> global) const {
  const std::int64_t before = sub_.stats().all_to_all_bytes;
  std::vector<Tensor> out = sub_.all_to_all_seq_to_heads(global);
  parent_->stats_.all_to_all.fetch_add(sub_.stats().all_to_all_bytes - before,
                                       std::memory_order_relaxed);
  return out;
}

std::vector<Tensor> GroupView::all_gather(std::span<const Tensor> local) const {
  const std::int64_t before = sub_.stats().all_gather_bytes;
  std::vector<Tensor> out = sub_.all_gather(local);
  parent_->stats_.all_gather.fetch_add(sub_.stats().all_gather_bytes - before,
                                       std::memory_order_relaxed);
  return out;
}

std::vector<Tensor> GroupView::reduce_scatter(std::span<const Tensor> full) const {
  const std::int64_t before = sub_.stats().reduce_scatter_bytes;
  std::vector<Tensor> out = sub_.reduce_scatter(full);
  parent_->stats_.reduce_scatter.fetch_add(sub_.stats().reduce_scatter_bytes - before,
                                           std::memory_order_relaxed);
  return out;
}

std::vector<Tensor> GroupView::all_reduce(std::span<const Tensor> local) const {
  const std::int64_t before = sub_.stats().all_reduce_bytes;
  std::vector<Tensor> out = sub_.all_reduce(local);
  parent_->stats_.all_reduce.fetch_add(sub_.stats().all_reduce_bytes - before,
                                       std::memory_order_relaxed);
  return out;
}

}  // namespace fpdt::comm
