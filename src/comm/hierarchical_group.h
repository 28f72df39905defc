// Topology-aware hierarchical collectives — the two-level NCCL stand-in.
//
// A flat ProcessGroup treats every rank pair as one uniform link. On a real
// rack the fabric is two-tier: switched NVLink inside the node, one shared
// IB HCA per node between nodes. HierarchicalProcessGroup decomposes each
// collective into an intra-node phase and an inter-node phase over
// GroupView subgroups of the parent:
//
//   All2All      inter-node sub-All2All over the stride-R cross-node groups
//                (head blocks coarsened to node granularity), then an
//                intra-node sub-All2All refining to per-rank heads, then a
//                local row-block permutation restoring the flat node-major
//                sequence order. Payload is bitwise identical to the flat
//                All2All (differential-tested) — the decomposition re-routes
//                traffic, it never touches values.
//   all_gather   intra-node gather (each rank materialises its node's slab),
//                then inter-node gather of the slabs. Node-major placement
//                makes slab concatenation in node order equal flat
//                concatenation in rank order, bitwise, ragged shards
//                included.
//   reductions   reduce_scatter / all_reduce keep the *flat sequential*
//                summation order — float reassociation is not associative,
//                and bit-identity with the flat group is the contract (the
//                deterministic-algorithm analogue of NCCL's tree/ring
//                switch). The hierarchy re-prices the transport only.
//   ring_shift   rank r -> r+1 is intra-node except at node boundaries:
//                P - N NVLink hops, N IB hops.
//
// Byte accounting lands on the shared CommStats counters exactly as the data
// moves (the phase subgroups forward their deltas to this group), and a
// second per-link ledger (topo::LinkStats) attributes the same bytes to
// intra/inter link classes, counts phases and peak concurrent flows, and
// accumulates modeled link-busy virtual time from Topology::phase_time().
// That busy time, summed over a collective's phases, is also what the
// collective costs on the ranks' virtual clocks (ProcessGroup's cost sink).
//
// Fault semantics: the phase subgroups are built with fault draws disabled;
// this group draws once per collective at full world scope, so the
// deterministic fault-draw sequence is identical to the flat group's.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "comm/process_group.h"
#include "topo/topology.h"

namespace fpdt::comm {

class HierarchicalProcessGroup : public ProcessGroup {
 public:
  explicit HierarchicalProcessGroup(topo::Topology topo);

  HierarchicalProcessGroup(const HierarchicalProcessGroup&) = delete;
  HierarchicalProcessGroup& operator=(const HierarchicalProcessGroup&) = delete;

  topo::LinkStats link_stats() const override;
  void reset_link_stats() override;
  const topo::Topology* topology() const override { return &topo_; }

  std::vector<Tensor> all_to_all_heads_to_seq(std::span<const Tensor> local) const override;
  std::vector<Tensor> all_to_all_seq_to_heads(std::span<const Tensor> global) const override;
  std::vector<Tensor> all_gather(std::span<const Tensor> local) const override;
  std::vector<Tensor> reduce_scatter(std::span<const Tensor> full) const override;
  std::vector<Tensor> all_reduce(std::span<const Tensor> local) const override;
  std::vector<Tensor> ring_shift(std::span<const Tensor> local) const override;

 private:
  // Records one completed phase in the link ledger: `bytes` total logical
  // bytes over link class `cls`, priced as `flows` concurrent transfers of
  // `bytes / world` each; returns those busy seconds. Emits a node-level
  // trace instant when tracing.
  double charge_phase(topo::LinkClass cls, std::int64_t bytes, int flows,
                      const char* name) const;

  // Splits a flat-priced reduction's byte delta into the intra/inter shares
  // a two-phase (node-local then cross-node) reduction would move. The
  // two-phase total equals the flat ring total — (P-1)/P of the payload per
  // rank — so the split conserves bytes exactly. Returns the busy seconds.
  double charge_reduction(std::int64_t delta, const char* name) const;

  topo::Topology topo_;
  // unique_ptr because GroupView owns a ProcessGroup (atomics — immovable).
  std::vector<std::unique_ptr<GroupView>> intra_;  // one per node, over node_members(n)
  std::vector<std::unique_ptr<GroupView>> inter_;  // one per local ordinal (stride-R)

  mutable std::mutex link_mutex_;
  mutable topo::LinkStats link_;
};

}  // namespace fpdt::comm
