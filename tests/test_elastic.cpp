// Elastic world membership: rank loss, node churn and network partitions
// with coordinated re-sharding (fault/elastic.h).
//
// The two contracts under test, swept over ranks x churn x ZeRO stage:
//   1. determinism — the same scenario seed produces an identical recovery
//      transcript and identical per-step losses on every run;
//   2. bitwise resume — after a reshard to world P', every subsequent loss
//      is bitwise identical to a fresh P'-world run restored from the same
//      re-sharded snapshot (run_elastic's twin check).
// Plus unit coverage of the shard re-partitioner's manifest invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.h"
#include "fault/elastic.h"
#include "fault/fault_injector.h"
#include "nn/model_config.h"
#include "parallel/zero/reshard.h"
#include "tensor/tensor.h"

namespace fpdt {
namespace {

class ElasticTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    // Parameterized test names contain '/'; keep the path flat.
    std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    return (std::filesystem::temp_directory_path() / ("fpdt_elastic_" + name + "_" + tag))
        .string();
  }
  void TearDown() override { fault::FaultInjector::instance().disable(); }
};

fault::ElasticOptions small_options(int world, int zero_stage, const std::string& scenario,
                                    const std::string& ckpt) {
  fault::ElasticOptions opt;
  opt.scenario = scenario;
  opt.steps = 4;
  opt.world = world;
  opt.cfg.chunks_per_rank = 1;
  opt.chunk_tokens = 8;
  opt.cfg.zero_stage = zero_stage;
  // 8 heads: worlds {1, 2, 4, 8} are valid, so every shrink has somewhere
  // to land and world 8 can lose a rank.
  opt.model = nn::tiny_gpt(32, 1, 8, 48);
  opt.checkpoint_path = ckpt;
  return opt;
}

// ---- churn sweep -----------------------------------------------------------

struct ChurnCase {
  const char* name;
  const char* scenario;
  int min_world;        // scenario needs at least this many ranks
  bool expects_reshard;
};

struct SweepCase {
  int world;
  int zero_stage;
  ChurnCase churn;
};

class ElasticSweep : public ElasticTest,
                     public ::testing::WithParamInterface<SweepCase> {};

TEST_P(ElasticSweep, DeterministicTranscriptAndBitwiseTwin) {
  const SweepCase& p = GetParam();
  if (p.world < p.churn.min_world) {
    GTEST_SKIP() << p.churn.name << " needs at least " << p.churn.min_world << " ranks";
  }
  const fault::ElasticOptions opt =
      small_options(p.world, p.zero_stage, p.churn.scenario, temp_path("sweep"));

  fault::FaultInjector::instance().disable();
  const fault::ElasticResult a = fault::run_elastic(opt);
  fault::FaultInjector::instance().disable();
  const fault::ElasticResult b = fault::run_elastic(opt);

  ASSERT_TRUE(a.survived(opt.steps)) << "first run died";
  ASSERT_TRUE(b.survived(opt.steps)) << "second run died";

  // (a) identical seeds => identical recovery transcript, twice.
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.final_world, b.final_world);
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << "loss diverged at step " << i;
  }

  // (b) post-reshard losses bitwise-equal to a fresh run at the reduced
  // world restored from the same step (the twin inside run_elastic).
  EXPECT_EQ(a.resharded(), p.churn.expects_reshard) << a.report(opt.steps);
  EXPECT_TRUE(a.twin_bitwise_match) << a.report(opt.steps);
  EXPECT_TRUE(b.twin_bitwise_match);
  if (p.churn.expects_reshard) {
    EXPECT_LT(a.reshard_world, p.world + 1);
    EXPECT_GE(a.final_epoch, 2);
  }
}

std::vector<SweepCase> sweep_cases() {
  const ChurnCase churns[] = {
      {"lose1", "ranklost:step=1,rank=1", 2, true},
      {"lose2", "ranklost:step=1,rank=1;ranklost:step=2,rank=0", 4, true},
      {"lose_rejoin", "ranklost:step=1,rank=1;rejoin:step=3", 2, true},
      {"netpart_heal", "netpart:step=1", 2, false},
  };
  std::vector<SweepCase> cases;
  for (int world : {2, 4, 8}) {
    for (int stage : {0, 3}) {
      for (const ChurnCase& churn : churns) cases.push_back({world, stage, churn});
    }
  }
  return cases;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return "w" + std::to_string(info.param.world) + "_z" +
         std::to_string(info.param.zero_stage) + "_" + info.param.churn.name;
}

INSTANTIATE_TEST_SUITE_P(Churn, ElasticSweep, ::testing::ValuesIn(sweep_cases()),
                         sweep_name);

// ---- targeted behaviors ----------------------------------------------------

TEST_F(ElasticTest, RankLossPicksNearestValidWorld) {
  // 8 heads at world 4: losing one rank leaves 3 survivors, but 8 % 3 != 0,
  // so the nearest valid world is 2 — one healthy rank idles as a spare.
  fault::ElasticOptions opt =
      small_options(4, 3, "ranklost:step=1,rank=1", temp_path("nearest"));
  const fault::ElasticResult res = fault::run_elastic(opt);
  ASSERT_TRUE(res.survived(opt.steps));
  EXPECT_EQ(res.reshard_world, 2);
  EXPECT_EQ(res.final_world, 2);
  EXPECT_TRUE(res.twin_bitwise_match) << res.report(opt.steps);
}

TEST_F(ElasticTest, RejoinGrowsTheWorldBack) {
  fault::ElasticOptions opt = small_options(
      4, 3, "ranklost:step=1,rank=0;rejoin:step=3,ranks=1", temp_path("rejoin"));
  opt.steps = 5;
  const fault::ElasticResult res = fault::run_elastic(opt);
  ASSERT_TRUE(res.survived(opt.steps));
  EXPECT_EQ(res.final_world, 4);
  // Epochs: loss, then rejoin.
  EXPECT_EQ(res.final_epoch, 3);
  EXPECT_EQ(res.reshard_step, 3);  // the growth reshard is the last one
  EXPECT_TRUE(res.twin_bitwise_match) << res.report(opt.steps);
}

TEST_F(ElasticTest, PartitionHealsWithoutMembershipChange) {
  fault::ElasticOptions opt = small_options(4, 3, "netpart:step=1", temp_path("netpart"));
  const fault::ElasticResult res = fault::run_elastic(opt);
  ASSERT_TRUE(res.survived(opt.steps));
  EXPECT_FALSE(res.resharded());
  EXPECT_EQ(res.final_world, 4);
  EXPECT_EQ(res.final_epoch, 2);  // the partition still bumps the epoch
  // Fault-free clean twin matches every step bitwise: the partition replay
  // was invisible to training math.
  EXPECT_TRUE(res.twin_bitwise_match) << res.report(opt.steps);
}

TEST_F(ElasticTest, SlowRankIsToleratedNotEvicted) {
  fault::ElasticOptions opt =
      small_options(4, 0, "rankslow:step=1,rank=1", temp_path("slow"));
  const fault::ElasticResult res = fault::run_elastic(opt);
  ASSERT_TRUE(res.survived(opt.steps));
  EXPECT_FALSE(res.resharded());
  EXPECT_EQ(res.final_epoch, 1);  // no membership event
  bool noted_slow = false;
  for (const std::string& line : res.transcript) {
    noted_slow = noted_slow || line.find("tolerated") != std::string::npos;
  }
  EXPECT_TRUE(noted_slow) << res.report(opt.steps);
  EXPECT_TRUE(res.twin_bitwise_match);
}

TEST_F(ElasticTest, BadRejoinClauseThrows) {
  fault::ElasticOptions opt = small_options(2, 0, "rejoin:ranks=1", temp_path("bad"));
  EXPECT_THROW(fault::run_elastic(opt), FpdtError);
  opt.scenario = "rejoin:step=2,bogus=1";
  EXPECT_THROW(fault::run_elastic(opt), FpdtError);
}

TEST_F(ElasticTest, RecoveryTimeIsAccounted) {
  fault::ElasticOptions opt =
      small_options(4, 3, "ranklost:step=1,rank=1", temp_path("recovery"));
  const fault::ElasticResult res = fault::run_elastic(opt);
  ASSERT_TRUE(res.survived(opt.steps));
  EXPECT_GT(res.recovery_wall_s, 0.0);
  EXPECT_LT(res.recovery_wall_s, 60.0);
}

// ---- shard re-partitioning (zero/reshard.h) --------------------------------

nn::ShardedAdamState make_state(const zero::ParamElems& numels, int world,
                                float scale) {
  nn::ShardedAdamState state;
  for (const auto& [name, numel] : numels) {
    const std::int64_t s = (numel + world - 1) / world;
    std::vector<nn::Adam::Moments> mom(static_cast<std::size_t>(world));
    std::int64_t flat = 0;
    for (int r = 0; r < world; ++r) {
      mom[static_cast<std::size_t>(r)].m = Tensor::zeros({s});
      mom[static_cast<std::size_t>(r)].v = Tensor::zeros({s});
      for (std::int64_t i = 0; i < s && flat < numel; ++i, ++flat) {
        mom[static_cast<std::size_t>(r)].m.data()[i] = scale * static_cast<float>(flat);
        mom[static_cast<std::size_t>(r)].v.data()[i] =
            scale * 0.5f * static_cast<float>(flat + 1);
      }
    }
    state.emplace(name, std::move(mom));
  }
  return state;
}

TEST(ReshardTest, FlatHashesSurviveAnyWorldChange) {
  const zero::ParamElems numels{{"a", 13}, {"b", 8}, {"c", 1}};
  const nn::ShardedAdamState at4 = make_state(numels, 4, 1.25f);
  const zero::ShardManifest m4 = zero::manifest_of(at4, numels, 4);
  for (int to : {1, 2, 3, 4, 8}) {
    const nn::ShardedAdamState out = zero::reshard_adam_state(at4, numels, 4, to);
    const zero::ShardManifest mo = zero::manifest_of(out, numels, to);
    EXPECT_EQ(m4.digest(), mo.digest()) << "to world " << to;
    ASSERT_EQ(mo.entries.size(), m4.entries.size());
    for (std::size_t i = 0; i < mo.entries.size(); ++i) {
      EXPECT_EQ(mo.entries[i].m_hash, m4.entries[i].m_hash);
      EXPECT_EQ(mo.entries[i].v_hash, m4.entries[i].v_hash);
    }
  }
}

TEST(ReshardTest, RoundTripIsIdentity) {
  const zero::ParamElems numels{{"w", 10}};
  const nn::ShardedAdamState orig = make_state(numels, 2, 2.0f);
  const nn::ShardedAdamState there = zero::reshard_adam_state(orig, numels, 2, 3);
  const nn::ShardedAdamState back = zero::reshard_adam_state(there, numels, 3, 2);
  for (const auto& [name, mom] : orig) {
    const auto& rt = back.at(name);
    ASSERT_EQ(rt.size(), mom.size());
    for (std::size_t r = 0; r < mom.size(); ++r) {
      ASSERT_EQ(rt[r].m.numel(), mom[r].m.numel());
      EXPECT_EQ(0, std::memcmp(rt[r].m.data(), mom[r].m.data(),
                               static_cast<std::size_t>(mom[r].m.numel()) * sizeof(float)));
      EXPECT_EQ(0, std::memcmp(rt[r].v.data(), mom[r].v.data(),
                               static_cast<std::size_t>(mom[r].v.numel()) * sizeof(float)));
    }
  }
}

TEST(ReshardTest, NonZeroPaddingIsRejected) {
  const zero::ParamElems numels{{"w", 5}};
  nn::ShardedAdamState state = make_state(numels, 2, 1.0f);
  // 5 elements over 2 shards of 3: the last shard's final slot is padding.
  state.at("w")[1].m.data()[2] = 7.0f;
  EXPECT_THROW(zero::manifest_of(state, numels, 2), FpdtError);
  EXPECT_THROW(zero::reshard_adam_state(state, numels, 2, 1), FpdtError);
}

TEST(ReshardTest, GeometryMismatchIsRejected) {
  const zero::ParamElems numels{{"w", 6}};
  const nn::ShardedAdamState state = make_state(numels, 2, 1.0f);
  // Wrong world: shard count disagrees.
  EXPECT_THROW(zero::manifest_of(state, numels, 3), FpdtError);
  // Missing numel entry.
  EXPECT_THROW(zero::manifest_of(state, zero::ParamElems{}, 2), FpdtError);
}

TEST(ReshardTest, DigestIsWorldInvariantButContentSensitive) {
  const zero::ParamElems numels{{"w", 9}};
  const nn::ShardedAdamState a = make_state(numels, 3, 1.0f);
  const nn::ShardedAdamState b = make_state(numels, 3, 1.5f);
  EXPECT_NE(zero::manifest_of(a, numels, 3).digest(),
            zero::manifest_of(b, numels, 3).digest());
}

}  // namespace
}  // namespace fpdt
