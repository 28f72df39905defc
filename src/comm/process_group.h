// In-process SPMD collectives — the NCCL stand-in.
//
// The functional layer emulates a sequence-parallel group of P ranks inside
// one process: per-rank state is a std::vector with one entry per rank, and
// a collective is a function from per-rank inputs to per-rank outputs that
// moves real data exactly the way NCCL would. This preserves every layout
// property the paper relies on (head scatter / sequence gather, rank-ordinal
// chunk contiguity, causal-mask validity) while replacing only the
// transport.
//
// Layout convention: attention-layer tensors are [s, h, d] (batch is looped
// at the model level; the paper evaluates with batch size 1). "Heads to
// sequence" All2All is the Ulysses forward re-shard:
//   per rank  [s_local, h_global, d]  ->  [s_global, h_local, d]
// where h_local = h_global / P and s_global = P * s_local, with received
// sequence pieces concatenated in rank order.
//
// Collectives are virtual: comm::HierarchicalProcessGroup
// (hierarchical_group.h) overrides them with a topology-aware two-phase
// decomposition that is payload-bitwise-identical to this flat group.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "tensor/tensor.h"
#include "topo/topology.h"

namespace fpdt::comm {

struct CommStats {
  std::int64_t all_to_all_bytes = 0;
  std::int64_t all_gather_bytes = 0;
  std::int64_t reduce_scatter_bytes = 0;
  std::int64_t all_reduce_bytes = 0;
  std::int64_t p2p_bytes = 0;

  std::int64_t total() const {
    return all_to_all_bytes + all_gather_bytes + reduce_scatter_bytes + all_reduce_bytes +
           p2p_bytes;
  }
};

// One logical collective's virtual-clock cost, reported once per call to the
// group's cost sink: a flat group's remote-only logical bytes per rank, or a
// topology-aware group's link-busy seconds (summed over its phases).
struct CollectiveCost {
  const char* name = "";
  std::int64_t bytes_per_rank = 0;
  double link_busy_s = -1.0;  // < 0: price bytes_per_rank at the comm rate
};
using CostSink = std::function<void(const CollectiveCost&)>;

// ---- Typed collective failure ----------------------------------------------
// A real NCCL communicator does not limp along after a rank dies or the
// fabric partitions — the collective aborts with an error code the runtime
// must interpret. The emulation mirrors that: instead of a bare FpdtError
// (indistinguishable from any other step failure), a failed collective
// carries a CommResult naming what broke and, for rank loss, *which* rank,
// so the elastic membership layer can choose shrink vs heal vs replay.
enum class CommErrc {
  kOk,           // not an error (default-constructed CommResult)
  kRankLost,     // a member died; `rank` names the victim — permanent
  kPartitioned,  // the fabric split; heals on step replay — transient at step scope
  kAborted,      // transient-retry budget exhausted (the old hard abort)
};

const char* errc_name(CommErrc code);

struct CommResult {
  CommErrc code = CommErrc::kOk;
  int rank = -1;       // victim rank for kRankLost, else -1
  std::string detail;  // collective name + context

  bool ok() const { return code == CommErrc::kOk; }
  std::string to_string() const;
};

// The exception form of a non-ok CommResult. Derives from FpdtError so
// layers that only know the generic recovery ladder still degrade to
// restore-and-replay; layers that know better (fault::ElasticWorldManager)
// catch the typed form and read result().
class CommError : public FpdtError {
 public:
  explicit CommError(CommResult result)
      : FpdtError("collective failed: " + result.to_string()), result_(std::move(result)) {}

  const CommResult& result() const { return result_; }

 private:
  CommResult result_;
};

class ProcessGroup {
 public:
  explicit ProcessGroup(int world_size);
  virtual ~ProcessGroup() = default;

  int world_size() const { return world_size_; }

  // Snapshot of the byte counters. Accounting is atomic per counter:
  // collectives may run concurrently from parallel_for_ranks callers (the
  // sharded optimizer, gather groups), and each collective accumulates its
  // contribution with one relaxed fetch_add — no data race, no lock on the
  // hot path. The snapshot is a consistent-enough view for reports (each
  // field is individually exact; cross-field skew is bounded by in-flight
  // collectives).
  CommStats stats() const;
  void reset_stats();

  // Per-link traffic counters and the topology behind them. The flat group
  // has neither: all zeros / nullptr. HierarchicalProcessGroup overrides
  // all three.
  virtual topo::LinkStats link_stats() const { return {}; }
  virtual void reset_link_stats() {}
  virtual const topo::Topology* topology() const { return nullptr; }

  // Gets each logical collective's cost once; set before the first one.
  void set_cost_sink(CostSink sink) { cost_sink_ = std::move(sink); }

  // Ulysses forward re-shard. Each rank holds [s_local, h_global, d] with
  // h_global divisible by P; returns per-rank [P*s_local, h_global/P, d].
  // Received pieces are concatenated along sequence in rank order, so with
  // the rank-ordinal chunk layout (Fig. 6) the result is a contiguous slice
  // of the global sequence.
  virtual std::vector<Tensor> all_to_all_heads_to_seq(std::span<const Tensor> local) const;

  // Exact inverse of all_to_all_heads_to_seq.
  virtual std::vector<Tensor> all_to_all_seq_to_heads(std::span<const Tensor> global) const;

  // Concatenate per-rank shards along dim 0 onto every rank.
  virtual std::vector<Tensor> all_gather(std::span<const Tensor> local) const;

  // Elementwise-sum all inputs, then hand rank r the r-th dim-0 slice.
  // Inputs must share a shape whose dim 0 is divisible by P.
  virtual std::vector<Tensor> reduce_scatter(std::span<const Tensor> full) const;

  // Elementwise sum replicated to every rank.
  virtual std::vector<Tensor> all_reduce(std::span<const Tensor> local) const;

  // Ring shift: rank r's tensor is delivered to rank (r + 1) % P.
  // The building block of Ring Attention's KV rotation.
  virtual std::vector<Tensor> ring_shift(std::span<const Tensor> local) const;

 protected:
  // One relaxed atomic per counter (collectives are const and concurrent).
  struct AtomicStats {
    std::atomic<std::int64_t> all_to_all{0};
    std::atomic<std::int64_t> all_gather{0};
    std::atomic<std::int64_t> reduce_scatter{0};
    std::atomic<std::int64_t> all_reduce{0};
    std::atomic<std::int64_t> p2p{0};
  };

  // Fault-injection entry at the top of every collective: one draw per
  // collective at group scope (see the .cpp for the full semantics). A
  // group with fault draws disabled (the internal phase sub-groups of
  // HierarchicalProcessGroup, which draws once itself at full world scope)
  // skips it so the deterministic draw sequence matches the flat group's.
  void guard(const char* what) const;

  // Traces one finished collective and, on a flat group, prices it; a
  // topology-aware group prices its link time itself via charge_cost.
  void report_collective(const char* name, std::int64_t bytes_per_rank) const;
  void charge_cost(const CollectiveCost& cost) const;

  mutable AtomicStats stats_;

 private:
  friend class GroupView;

  ProcessGroup(int world_size, bool draw_faults);

  int world_size_;
  bool draw_faults_ = true;
  CostSink cost_sink_;
};

// ---- GroupView -------------------------------------------------------------
// A communicator restricted to a healthy subset of a parent group's ranks —
// the NCCL "shrunken communicator" the elastic layer rebuilds after rank
// loss, and the phase subgroup the hierarchical group decomposes over.
// Ordinals 0..size()-1 are dense over `members` (ascending global rank);
// global_rank() maps back. Collectives run over the members only and are
// charged to the *parent* group's byte counters, so `fpdt`'s comm
// accounting stays whole-fleet even while a reshard coordinates over
// survivors (or a collective phase runs over one node's ranks).
class GroupView {
 public:
  // `members`: distinct ranks of `parent`, at least one. Kept sorted.
  // `draw_faults` = false skips the per-collective fault draw inside this
  // view (the caller draws at its own scope — hierarchical phases).
  GroupView(ProcessGroup& parent, std::vector<int> members, bool draw_faults = true);

  int size() const { return sub_.world_size(); }
  int global_rank(int ordinal) const;
  bool contains(int global_rank) const;
  const std::vector<int>& members() const { return members_; }

  // Nested subgroup: a view over the same parent restricted to the given
  // *ordinals* of this view (e.g. the intra-node slice of a survivor set).
  // Accounting still lands on the shared parent, so a rank that belongs to
  // both an intra-node and an inter-node view charges one counter set.
  GroupView subview(const std::vector<int>& ordinals) const;

  // Collectives over the member subset (inputs/outputs in ordinal order).
  std::vector<Tensor> all_to_all_heads_to_seq(std::span<const Tensor> local) const;
  std::vector<Tensor> all_to_all_seq_to_heads(std::span<const Tensor> global) const;
  std::vector<Tensor> all_gather(std::span<const Tensor> local) const;
  std::vector<Tensor> reduce_scatter(std::span<const Tensor> full) const;
  std::vector<Tensor> all_reduce(std::span<const Tensor> local) const;

 private:
  ProcessGroup* parent_;
  ProcessGroup sub_;  // does the actual data movement at size() ranks
  std::vector<int> members_;
};

}  // namespace fpdt::comm
