// Topology, hierarchical-collective differential, and weak-scaling model
// contract tests. The load-bearing property is the payload contract: a
// HierarchicalProcessGroup re-routes and re-prices traffic but must return
// bitwise-identical tensors to the flat seed group on every rank, for every
// collective — the in-process analogue of "NCCL tree and ring produce the
// same bits".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "comm/hierarchical_group.h"
#include "comm/process_group.h"
#include "common/rng.h"
#include "sim/hardware.h"
#include "tests/test_util.h"
#include "topo/topo_model.h"
#include "topo/topology.h"

namespace fpdt {
namespace {

using comm::HierarchicalProcessGroup;
using comm::ProcessGroup;
using topo::LinkClass;
using topo::LinkSpec;
using topo::Topology;

// ---- Topology placement ----------------------------------------------------

TEST(TopologyTest, NodeMajorPlacement) {
  const Topology t = Topology::grid(3, 4, sim::a100_80g_node());
  EXPECT_EQ(t.world(), 12);
  EXPECT_EQ(t.nodes(), 3);
  EXPECT_EQ(t.ranks_per_node(), 4);
  EXPECT_TRUE(t.hierarchical());
  for (int r = 0; r < t.world(); ++r) {
    EXPECT_EQ(t.node_of(r), r / 4);
    EXPECT_EQ(t.local_of(r), r % 4);
    EXPECT_EQ(t.rank_of(t.node_of(r), t.local_of(r)), r);
  }
  // Node membership is a contiguous global range; the cross-node axis is a
  // stride-R comb with one member per node.
  EXPECT_EQ(t.node_members(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(t.cross_node_members(2), (std::vector<int>{2, 6, 10}));
  EXPECT_THROW(t.node_of(12), FpdtError);
}

TEST(TopologyTest, LinkClassification) {
  const Topology t = Topology::grid(2, 2, sim::a100_80g_node());
  EXPECT_EQ(t.link(1, 1), LinkClass::kSelf);
  EXPECT_EQ(t.link(0, 1), LinkClass::kIntra);
  EXPECT_EQ(t.link(1, 2), LinkClass::kInter);
  EXPECT_TRUE(t.same_node(2, 3));
  EXPECT_FALSE(t.same_node(1, 2));

  const Topology flat = Topology::flat(4);
  EXPECT_FALSE(flat.hierarchical());
  EXPECT_EQ(flat.link(0, 3), LinkClass::kIntra);
}

TEST(TopologyTest, FromHardwarePartitionsFullUniformNodes) {
  const sim::HardwareSpec hw = sim::a100_80g_node();  // 4 GPUs per node
  EXPECT_EQ(Topology::from_hardware(hw, 2).nodes(), 1);
  const Topology t8 = Topology::from_hardware(hw, 8);
  EXPECT_EQ(t8.nodes(), 2);
  EXPECT_EQ(t8.ranks_per_node(), 4);
  // world = 6: 4 does not divide 6, so the largest fitting divisor (3)
  // keeps every node full and uniform.
  const Topology t6 = Topology::from_hardware(hw, 6);
  EXPECT_EQ(t6.ranks_per_node(), 3);
  EXPECT_EQ(t6.nodes(), 2);
}

TEST(TopologyTest, PhaseTimeContentionModel) {
  LinkSpec intra;
  intra.bandwidth = 100.0;
  intra.latency_s = 1.0;
  intra.capacity = 4;
  LinkSpec inter;
  inter.bandwidth = 10.0;
  inter.latency_s = 2.0;
  inter.capacity = 1;  // the shared HCA
  const Topology t = Topology::grid(2, 4, intra, inter);

  // At or below capacity every flow gets full bandwidth.
  EXPECT_DOUBLE_EQ(t.phase_time(LinkClass::kIntra, 200, 4), 1.0 + 200.0 / 100.0);
  // Beyond capacity the aggregate divides: 4 flows through a capacity-1
  // link each run at bandwidth/4.
  EXPECT_DOUBLE_EQ(t.phase_time(LinkClass::kInter, 10, 4), 2.0 + 4.0 * 10.0 / 10.0);
  // Local copies are never priced.
  EXPECT_DOUBLE_EQ(t.phase_time(LinkClass::kSelf, 1 << 20, 8), 0.0);
  EXPECT_DOUBLE_EQ(t.phase_time(LinkClass::kInter, 0, 0), 0.0);
}

// ---- Hierarchical differential oracle --------------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

void expect_ranks_bitwise(const char* what, const std::vector<Tensor>& flat,
                          const std::vector<Tensor>& hier) {
  ASSERT_EQ(flat.size(), hier.size()) << what;
  for (std::size_t r = 0; r < flat.size(); ++r) {
    EXPECT_TRUE(bitwise_equal(flat[r], hier[r])) << what << " rank " << r;
  }
}

class HierDifferential : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HierDifferential, AllCollectivesBitwiseIdenticalToFlat) {
  const auto [P, nodes] = GetParam();
  const int rpn = P / nodes;
  ProcessGroup flat(P);
  HierarchicalProcessGroup hier(Topology::grid(nodes, rpn, sim::a100_80g_node()));
  Rng rng(0x70B0u + static_cast<std::uint64_t>(P * 10 + nodes));

  std::vector<Tensor> heads, shard, full, vec, ring;
  for (int r = 0; r < P; ++r) {
    heads.push_back(Tensor::randn({3, 2 * P, 4}, rng));
    shard.push_back(Tensor::randn({5, 3}, rng));
    full.push_back(Tensor::randn({2 * P, 3}, rng));
    vec.push_back(Tensor::randn({7}, rng));
    ring.push_back(Tensor::randn({4}, rng));
  }
  const auto gf = flat.all_to_all_heads_to_seq(heads);
  const auto gh = hier.all_to_all_heads_to_seq(heads);
  expect_ranks_bitwise("heads_to_seq", gf, gh);
  expect_ranks_bitwise("seq_to_heads", flat.all_to_all_seq_to_heads(gf),
                       hier.all_to_all_seq_to_heads(gh));
  expect_ranks_bitwise("all_gather", flat.all_gather(shard), hier.all_gather(shard));
  // Reductions are the sharp edge: float sums are order-sensitive, and the
  // hierarchy promises the flat sequential order.
  expect_ranks_bitwise("reduce_scatter", flat.reduce_scatter(full), hier.reduce_scatter(full));
  expect_ranks_bitwise("all_reduce", flat.all_reduce(vec), hier.all_reduce(vec));
  expect_ranks_bitwise("ring_shift", flat.ring_shift(ring), hier.ring_shift(ring));

  // The re-route must also be visible in the ledger: multi-node runs charge
  // the inter-node link, single-node runs never do.
  const topo::LinkStats ls = hier.link_stats();
  if (nodes > 1) {
    EXPECT_GT(ls.inter_bytes, 0);
    EXPECT_GT(ls.inter_phases, 0);
    EXPECT_GT(ls.inter_busy_s, 0.0);
  } else {
    EXPECT_EQ(ls.inter_bytes, 0);
  }
  EXPECT_GT(ls.intra_bytes, 0);
  EXPECT_GE(ls.max_intra_flows, 1);
  hier.reset_link_stats();
  EXPECT_EQ(hier.link_stats().total_bytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HierDifferential,
                         ::testing::Values(std::pair{4, 2}, std::pair{8, 2}, std::pair{8, 4},
                                           std::pair{16, 4}, std::pair{4, 1}));

TEST(HierarchicalGroupTest, FlatGroupHasNoLinkLedger) {
  ProcessGroup flat(4);
  EXPECT_EQ(flat.link_stats().total_bytes(), 0);
  EXPECT_EQ(flat.topology(), nullptr);
  HierarchicalProcessGroup hier(Topology::grid(2, 2, sim::a100_80g_node()));
  ASSERT_NE(hier.topology(), nullptr);
  EXPECT_EQ(hier.topology()->nodes(), 2);
}

TEST(HierarchicalGroupTest, CostSinkPricesEachCollectiveOnceFromLinkTime) {
  // The virtual clock's collective price: one sink call per logical
  // collective. A flat group reports its remote-only bytes per rank; a
  // topology-aware group reports the link-busy seconds its phases charged
  // to the ledger (summed over phases, never once per phase).
  for (const auto& [P, nodes] : {std::pair{4, 2}, std::pair{4, 1}}) {
    SCOPED_TRACE(::testing::Message() << P << " ranks on " << nodes << " nodes");
    ProcessGroup flat(P);
    HierarchicalProcessGroup hier(Topology::grid(nodes, P / nodes, sim::a100_80g_node()));
    std::vector<comm::CollectiveCost> flat_costs, hier_costs;
    flat.set_cost_sink([&](const comm::CollectiveCost& c) { flat_costs.push_back(c); });
    hier.set_cost_sink([&](const comm::CollectiveCost& c) { hier_costs.push_back(c); });
    Rng rng(0xC057u);
    std::vector<Tensor> heads, shard;
    for (int r = 0; r < P; ++r) {
      heads.push_back(Tensor::randn({3, 2 * P, 4}, rng));
      shard.push_back(Tensor::randn({2 * P, 3}, rng));
    }
    const auto collectives = std::vector<std::pair<const char*, std::function<void(ProcessGroup&)>>>{
        {"a2a heads_to_seq", [&](ProcessGroup& g) { g.all_to_all_heads_to_seq(heads); }},
        {"all_gather", [&](ProcessGroup& g) { g.all_gather(shard); }},
        {"reduce_scatter", [&](ProcessGroup& g) { g.reduce_scatter(shard); }},
        {"all_reduce", [&](ProcessGroup& g) { g.all_reduce(shard); }},
        {"ring_shift", [&](ProcessGroup& g) { g.ring_shift(shard); }},
    };
    for (const auto& [name, run] : collectives) {
      const comm::CommStats before = flat.stats();
      run(flat);
      ASSERT_EQ(flat_costs.size(), 1u) << name;
      EXPECT_STREQ(flat_costs[0].name, name);
      EXPECT_LT(flat_costs[0].link_busy_s, 0.0);
      EXPECT_GT(flat_costs[0].bytes_per_rank, 0);
      EXPECT_LE(flat_costs[0].bytes_per_rank * P, flat.stats().total() - before.total());
      flat_costs.clear();

      const topo::LinkStats link_before = hier.link_stats();
      run(hier);
      ASSERT_EQ(hier_costs.size(), 1u) << name;
      EXPECT_STREQ(hier_costs[0].name, name);
      const topo::LinkStats link = hier.link_stats();
      const double busy = (link.intra_busy_s - link_before.intra_busy_s) +
                          (link.inter_busy_s - link_before.inter_busy_s);
      EXPECT_GT(hier_costs[0].link_busy_s, 0.0) << name;
      EXPECT_NEAR(hier_costs[0].link_busy_s, busy, 1e-12 * busy) << name;
      hier_costs.clear();
    }
  }
  // A single rank's collective is a local copy: no link, no price.
  ProcessGroup solo(1);
  int calls = 0;
  solo.set_cost_sink([&](const comm::CollectiveCost&) { ++calls; });
  solo.all_gather(std::vector<Tensor>{Tensor::zeros({4})});
  EXPECT_EQ(calls, 0);
}

// ---- Weak-scaling model ----------------------------------------------------

topo::TopoModelOptions small_model_opt() {
  topo::TopoModelOptions opt;
  opt.model = nn::model_by_name("gpt-6.7b");
  return opt;
}

TEST(TopoModelTest, SingleNodeRoutingsCoincide) {
  // On one node there is no inter-node link to avoid: both routings price
  // the same on-node pipeline.
  const sim::HardwareSpec hw = sim::a100_80g_node();
  const Topology t = Topology::grid(1, 4, hw);
  const topo::TopoModelOptions opt = small_model_opt();
  const topo::TopoEval flat = topo::model_step(t, hw, opt, /*hierarchical=*/false);
  const topo::TopoEval hier = topo::model_step(t, hw, opt, /*hierarchical=*/true);
  EXPECT_NEAR(flat.step_s, hier.step_s, 1e-9 * flat.step_s);
  EXPECT_EQ(flat.inter_busy_s, 0.0);
  EXPECT_EQ(hier.inter_busy_s, 0.0);
}

TEST(TopoModelTest, HierStrictlyWinsOnMultiNodeWorlds) {
  const sim::HardwareSpec hw = sim::a100_80g_node();
  ASSERT_LT(hw.ib_bw, hw.nvlink_bw);
  const topo::TopoModelOptions opt = small_model_opt();
  for (const int w : {64, 256, 1024}) {
    const Topology t = Topology::from_hardware(hw, w);
    ASSERT_GT(t.nodes(), 1);
    const topo::TopoEval flat = topo::model_step(t, hw, opt, false);
    const topo::TopoEval hier = topo::model_step(t, hw, opt, true);
    EXPECT_LT(hier.step_s, flat.step_s) << "world " << w;
    EXPECT_GT(flat.inter_busy_s, 0.0) << "world " << w;
    EXPECT_GT(hier.mfu, 0.0);
    EXPECT_LE(hier.mfu, 1.0);
  }
}

TEST(TopoModelTest, WeakScalingSweepSatisfiesShapeContract) {
  const sim::HardwareSpec hw = sim::a100_80g_node();
  const topo::TopoModelOptions opt = small_model_opt();
  const auto rows = topo::weak_scaling(hw, 64, 512, opt);
  ASSERT_EQ(rows.size(), 4u);
  std::string why;
  EXPECT_TRUE(topo::check_weak_scaling(rows, hw, opt.ctx_per_gpu, &why)) << why;
  // CSV: header plus one line per row.
  const std::string csv = topo::scaling_csv(rows);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            rows.size() + 1);
  EXPECT_EQ(csv.rfind("gpus,nodes,seq_global,", 0), 0u);
}

TEST(TopoModelTest, ShapeCheckRejectsViolations) {
  const sim::HardwareSpec hw = sim::a100_80g_node();
  const topo::TopoModelOptions opt = small_model_opt();
  const auto rows = topo::weak_scaling(hw, 64, 256, opt);
  std::string why;

  auto tampered = rows;
  std::swap(tampered[1].flat_step_s, tampered[1].hier_step_s);
  tampered[1].speedup = tampered[1].flat_step_s / tampered[1].hier_step_s;
  EXPECT_FALSE(topo::check_weak_scaling(tampered, hw, opt.ctx_per_gpu, &why));
  EXPECT_NE(why.find("strictly beat"), std::string::npos) << why;

  tampered = rows;
  tampered[2].seq_global += 1;
  EXPECT_FALSE(topo::check_weak_scaling(tampered, hw, opt.ctx_per_gpu, &why));
  EXPECT_NE(why.find("weak scaling"), std::string::npos) << why;

  tampered = rows;
  tampered[1].gpus = 100;
  EXPECT_FALSE(topo::check_weak_scaling(tampered, hw, opt.ctx_per_gpu, &why));

  tampered = rows;
  tampered[0].speedup *= 2.0;
  EXPECT_FALSE(topo::check_weak_scaling(tampered, hw, opt.ctx_per_gpu, &why));
  EXPECT_FALSE(topo::check_weak_scaling({}, hw, opt.ctx_per_gpu, &why));
}

TEST(HardwarePresetTest, NamedPresetsResolve) {
  EXPECT_EQ(sim::hw_preset("").gpus_per_node, sim::a100_80g_node().gpus_per_node);
  EXPECT_LT(sim::hw_preset("a100-40g").hbm_bytes, sim::hw_preset("a100-nvlink").hbm_bytes);
  EXPECT_LT(sim::hw_preset("pcie-host").nvlink_bw, sim::hw_preset("a100-nvlink").nvlink_bw);
  EXPECT_THROW(sim::hw_preset("h100-sxm"), FpdtError);
}

}  // namespace
}  // namespace fpdt
