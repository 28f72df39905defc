// Simulator tests: pipeline scheduling semantics, cost-model physics
// (monotonicity, crossovers the paper's Figs. 8–10 rely on), and timeline
// properties (double buffering helps, offload overhead is bounded).
#include <gtest/gtest.h>

#include "nn/model_config.h"
#include "sim/cost_model.h"
#include "sim/hardware.h"
#include "sim/pipeline_sim.h"
#include "common/check.h"
#include "kernels/op_cost.h"
#include "sim/timeline.h"

namespace fpdt {
namespace {

using sim::CostModel;
using sim::FetchStrategy;
using sim::HardwareSpec;
using sim::PipelineSim;

// FLOPs of one dense (unmasked) chunk pair over a quarter of the heads.
double dense_pair_flops(const nn::ModelConfig& cfg, std::int64_t c) {
  const kernels::AttnDims dm{c, c, cfg.n_head / 4, cfg.n_kv_head / 4, cfg.head_dim(),
                             cfg.n_head / cfg.n_kv_head};
  return static_cast<double>(kernels::online_attn_step_cost(dm, false, 0, 0).flops);
}

TEST(PipelineSimTest, SerializesTasksOnOneResource) {
  PipelineSim ps;
  const int r = ps.add_resource("comp");
  ps.add_task(r, 1.0, {});
  ps.add_task(r, 2.0, {});
  EXPECT_DOUBLE_EQ(ps.run(), 3.0);
  EXPECT_DOUBLE_EQ(ps.task(1).start, 1.0);
}

TEST(PipelineSimTest, IndependentResourcesOverlap) {
  PipelineSim ps;
  const int a = ps.add_resource("a");
  const int b = ps.add_resource("b");
  ps.add_task(a, 3.0, {});
  ps.add_task(b, 2.0, {});
  EXPECT_DOUBLE_EQ(ps.run(), 3.0);
}

TEST(PipelineSimTest, DependenciesStall) {
  PipelineSim ps;
  const int a = ps.add_resource("a");
  const int b = ps.add_resource("b");
  const int t0 = ps.add_task(a, 3.0, {});
  ps.add_task(b, 1.0, {t0});
  EXPECT_DOUBLE_EQ(ps.run(), 4.0);
}

TEST(PipelineSimTest, PipelineOverlapsStages) {
  // Classic 2-stage pipeline: 4 items, fetch 1s + compute 1s each.
  // Serial = 8s; pipelined = 5s.
  PipelineSim ps;
  const int fetch = ps.add_resource("fetch");
  const int comp = ps.add_resource("comp");
  int prev = -1;
  for (int i = 0; i < 4; ++i) {
    const int f = ps.add_task(fetch, 1.0, {});
    std::vector<int> deps = {f};
    if (prev >= 0) deps.push_back(prev);
    prev = ps.add_task(comp, 1.0, deps);
  }
  EXPECT_DOUBLE_EQ(ps.run(), 5.0);
}

TEST(PipelineSimTest, BusyTimeAndTrace) {
  PipelineSim ps;
  const int a = ps.add_resource("a");
  ps.add_task(a, 1.5, {}, "one");
  ps.add_task(a, 0.5, {}, "two");
  ps.run();
  EXPECT_DOUBLE_EQ(ps.resource_busy(a), 2.0);
  EXPECT_NE(ps.trace().find("one"), std::string::npos);
}

TEST(PipelineSimTest, InvalidInputsThrow) {
  PipelineSim ps;
  const int a = ps.add_resource("a");
  EXPECT_THROW(ps.add_task(7, 1.0, {}), FpdtError);
  EXPECT_THROW(ps.add_task(a, -1.0, {}), FpdtError);
  const int t = ps.add_task(a, 1.0, {});
  EXPECT_THROW(ps.add_task(a, 1.0, {t + 5}), FpdtError);  // forward dep
}

// ---- Cost model ------------------------------------------------------------

TEST(CostModelTest, GemmTimeScalesWithFlops) {
  CostModel cm(sim::a100_80g_node(), 4);
  EXPECT_GT(cm.gemm_time(1e12), cm.gemm_time(1e9));
  EXPECT_GT(cm.attn_time(1e12), cm.gemm_time(1e12));  // lower efficiency
}

TEST(CostModelTest, All2AllSingleRankFree) {
  CostModel cm(sim::a100_80g_node(), 1);
  EXPECT_DOUBLE_EQ(cm.all2all_time(1 << 20), 0.0);
}

TEST(CostModelTest, MultiNodeCommSlower) {
  const HardwareSpec hw = sim::a100_80g_node();
  CostModel intra(hw, 4);
  CostModel inter(hw, 8);
  const std::int64_t bytes = 256LL << 20;
  EXPECT_GT(inter.all2all_time(bytes), intra.all2all_time(bytes));
  EXPECT_GT(inter.allgather_time(bytes), intra.allgather_time(bytes));
}

TEST(CostModelTest, FetchStrategyBehaviour) {
  // §4.2: the multi-GPU H2D strategy "performs worse at smaller data sizes,
  // due to the overhead in lane contention", and past ~32-64K tokens both
  // strategies are overtaken by attention compute, so their difference
  // becomes negligible *relative to the step time*.
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  const std::int64_t small = 256LL << 10;
  EXPECT_GT(cm.fetch_time(small, FetchStrategy::kPerGpu),
            cm.fetch_time(small, FetchStrategy::kPerGpuExclusive));
  EXPECT_GT(cm.fetch_time(small, FetchStrategy::kOneGpuScatter),
            cm.fetch_time(small, FetchStrategy::kPerGpuExclusive));
  const std::int64_t chunk = 128 * 1024;  // tokens, past the crossover
  const std::int64_t bytes = 2 * chunk * cfg.d_model / 4 * 2;
  const double attn = cm.attn_time(dense_pair_flops(cfg, chunk));
  EXPECT_GT(attn, cm.fetch_time(bytes, FetchStrategy::kPerGpu));
  EXPECT_GT(attn, cm.fetch_time(bytes, FetchStrategy::kOneGpuScatter));
}

TEST(CostModelTest, AttentionOvertakesFetchAtLargeChunks) {
  // The Fig. 10 crossover: fetch latency dominates small chunks (GPU
  // starving, Fig. 8); attention compute dominates large ones (Fig. 9).
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  auto attn_t = [&](std::int64_t c) {
    return cm.attn_time(dense_pair_flops(cfg, c));
  };
  auto fetch_t = [&](std::int64_t c) {
    return cm.h2d_time(2 * c * cfg.d_model / 4 * 2);
  };
  EXPECT_LT(attn_t(2048), fetch_t(2048));       // starving regime
  EXPECT_GT(attn_t(256 * 1024), fetch_t(256 * 1024));  // compute-bound regime
}

// ---- Timelines --------------------------------------------------------------

TEST(TimelineTest, DoubleBufferBeatsStrict) {
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  const std::int64_t s_local = 64 * 1024;
  sim::LayerTiming strict = sim::fpdt_layer_timing(cfg, cm, s_local, 8, true, false);
  sim::LayerTiming dbuf = sim::fpdt_layer_timing(cfg, cm, s_local, 8, true, true);
  EXPECT_LE(dbuf.total(), strict.total());
}

TEST(TimelineTest, OffloadOverheadBoundedAtSweetSpot) {
  // At the 64K chunk sweet spot, offloading costs almost nothing versus
  // pure chunking (the paper's "comparable MFU as the non-offloading
  // counterparts").
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  const std::int64_t s_local = 256 * 1024 / 4;
  const std::int64_t u = 256 / 64;  // 64K global chunks
  sim::LayerTiming none = sim::fpdt_layer_timing(cfg, cm, s_local, u, false, false);
  sim::LayerTiming off = sim::fpdt_layer_timing(cfg, cm, s_local, u, true, true);
  EXPECT_LT(off.total(), none.total() * 1.10);
}

TEST(TimelineTest, TinyChunksStarveTheGpu) {
  // Fig. 8: with very small chunks the PCIe stream cannot keep up and the
  // per-token cost rises well above the sweet spot's.
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  const std::int64_t s_local = 256 * 1024 / 4;
  sim::LayerTiming sweet = sim::fpdt_layer_timing(cfg, cm, s_local, 4, true, true);
  sim::LayerTiming tiny = sim::fpdt_layer_timing(cfg, cm, s_local, 64, true, true);
  EXPECT_GT(tiny.total(), sweet.total());
}

TEST(TimelineTest, UlyssesEqualsSingleChunkRecompute) {
  const nn::ModelConfig cfg = nn::llama_8b();
  CostModel cm(sim::a100_80g_node(), 4);
  sim::LayerTiming ul = sim::ulysses_layer_timing(cfg, cm, 32 * 1024);
  sim::LayerTiming fp = sim::fpdt_layer_timing(cfg, cm, 32 * 1024, 1, false, false,
                                               /*cache_fwd_outputs=*/false);
  EXPECT_DOUBLE_EQ(ul.total(), fp.total());
}

TEST(TimelineTest, CacheForwardOutputsFasterThanRecompute) {
  const nn::ModelConfig cfg = nn::llama_8b();
  CostModel cm(sim::a100_80g_node(), 8);
  sim::LayerTiming cached = sim::fpdt_layer_timing(cfg, cm, 64 * 1024, 4, true, true, true);
  sim::LayerTiming recompute =
      sim::fpdt_layer_timing(cfg, cm, 64 * 1024, 4, true, true, false);
  EXPECT_LT(cached.total(), recompute.total());
}

TEST(TimelineTest, MegatronSpCommScalesWithSequence) {
  const nn::ModelConfig cfg = nn::gpt_13b();
  CostModel cm(sim::a100_80g_node(), 8);
  sim::LayerTiming a = sim::megatron_layer_timing(cfg, cm, 8 * 1024, true, true);
  sim::LayerTiming b = sim::megatron_layer_timing(cfg, cm, 16 * 1024, true, true);
  EXPECT_GT(b.comm_busy_s, a.comm_busy_s * 1.5);
}

TEST(TimelineTest, StepEstimateMfuInUnitRange) {
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  sim::LayerTiming layer = sim::fpdt_layer_timing(cfg, cm, 64 * 1024, 4, true, true);
  sim::StepEstimate est = sim::step_estimate(cfg, cm, 256 * 1024, layer);
  EXPECT_GT(est.mfu, 0.05);
  EXPECT_LT(est.mfu, 0.95);
  EXPECT_GT(est.step_s, 0.0);
}

TEST(TimelineTest, RingLayerSlowerThanUlyssesOnCausal) {
  // Ring's causal imbalance leaves its critical path ≥ balanced Ulysses.
  const nn::ModelConfig cfg = nn::gpt_2p7b();
  CostModel cm(sim::a100_80g_node(), 4);
  const std::int64_t s_local = 64 * 1024;
  sim::LayerTiming ring = sim::ring_layer_timing(cfg, cm, s_local);
  sim::LayerTiming ul = sim::ulysses_layer_timing(cfg, cm, s_local);
  EXPECT_GT(ring.total(), ul.total() * 0.9);
}

}  // namespace
}  // namespace fpdt
