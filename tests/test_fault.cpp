// Fault-injection and resilience: deterministic injector draws, retry /
// degrade / restore recovery ladders, crash-safe checkpointing, and the
// zero-overhead guarantee when the injector is disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "fault/fault_injector.h"
#include "fault/resilient_trainer.h"
#include "fault/watchdog.h"
#include "nn/checkpoint_io.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "parallel/zero/sharded_optimizer.h"
#include "parallel/zero/zero_config.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

using fault::FaultInjector;

// Every test leaves the process-global injector disarmed, whatever happened.
class FaultTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            (std::string("fpdt_fault_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + tag))
        .string();
  }
  void TearDown() override {
    FaultInjector::instance().disable();
    for (const std::string& p : cleanup_) {
      std::remove(p.c_str());
      std::remove((p + ".tmp").c_str());
    }
  }
  std::string tracked(const std::string& tag) {
    cleanup_.push_back(temp_path(tag));
    return cleanup_.back();
  }

 private:
  std::vector<std::string> cleanup_;
};

TEST_F(FaultTest, DisabledByDefaultAndAfterDisable) {
  FaultInjector& inj = FaultInjector::instance();
  inj.disable();
  EXPECT_FALSE(fault::faults_enabled());
  EXPECT_FALSE(inj.should_fail(fault::Site::kH2D, 0));
  EXPECT_EQ(inj.straggler_delay(0), 0.0);
}

TEST_F(FaultTest, SpecParsing) {
  FaultInjector& inj = FaultInjector::instance();
  inj.configure("h2d:p=0.02,seed=7; collective:step=3,rank=1 ;oom:step=5;straggler:p=0.1,delay=2e-3");
  EXPECT_TRUE(inj.enabled());
  const std::string desc = inj.describe();
  EXPECT_NE(desc.find("h2d: p=0.02"), std::string::npos);
  EXPECT_NE(desc.find("collective: step=3 rank=1"), std::string::npos);
  EXPECT_NE(desc.find("delay=0.002"), std::string::npos);
  inj.configure("");  // empty spec disarms
  EXPECT_FALSE(inj.enabled());

  EXPECT_THROW(inj.configure("warp:p=0.1"), FpdtError);       // unknown site
  EXPECT_THROW(inj.configure("h2d:prob=0.1"), FpdtError);     // unknown key
  EXPECT_THROW(inj.configure("h2d:p=1.5"), FpdtError);        // p out of range
  EXPECT_THROW(inj.configure("h2d"), FpdtError);              // needs p or step
  EXPECT_THROW(inj.configure("h2d:p=abc"), FpdtError);        // bad number
  EXPECT_FALSE(inj.enabled());  // a failed configure never arms the gate
}

TEST_F(FaultTest, StepPinnedRuleFiresOncePerStepAndRank) {
  FaultInjector& inj = FaultInjector::instance();
  inj.configure("collective:step=2");
  inj.begin_step(1);
  EXPECT_FALSE(inj.should_fail(fault::Site::kCollective, -1));
  inj.begin_step(2);
  EXPECT_TRUE(inj.should_fail(fault::Site::kCollective, -1));
  EXPECT_FALSE(inj.should_fail(fault::Site::kCollective, -1));  // pin consumed
  inj.begin_step(3);
  EXPECT_FALSE(inj.should_fail(fault::Site::kCollective, -1));
  EXPECT_EQ(inj.stats().injected, 1);
}

TEST_F(FaultTest, SeededDrawsAreReproducible) {
  FaultInjector& inj = FaultInjector::instance();
  auto draw_pattern = [&] {
    inj.configure("h2d:p=0.3,seed=11");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(inj.should_fail(fault::Site::kH2D, 0));
    return fired;
  };
  const auto a = draw_pattern();
  const auto b = draw_pattern();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_LT(std::count(a.begin(), a.end(), true), 64);
}

TEST_F(FaultTest, ChaosRunIsDeterministic) {
  fault::ChaosOptions opt;
  opt.spec = "h2d:p=0.1,seed=5;d2h:p=0.1,seed=6;collective:step=1;straggler:p=0.05";
  opt.steps = 2;
  opt.chunk_tokens = 32;
  opt.checkpoint_path = tracked("a.ckpt");
  const fault::ChaosResult r1 = fault::run_chaos(opt);
  auto log1 = FaultInjector::instance().injection_log();
  opt.checkpoint_path = tracked("b.ckpt");
  const fault::ChaosResult r2 = fault::run_chaos(opt);
  auto log2 = FaultInjector::instance().injection_log();

  // Same seed, same spec: identical fault sequence (global order across rank
  // threads is nondeterministic, so compare sorted) and identical math.
  std::sort(log1.begin(), log1.end());
  std::sort(log2.begin(), log2.end());
  EXPECT_EQ(log1, log2);
  EXPECT_GT(r1.stats.injected, 0);
  EXPECT_EQ(r1.stats.injected, r2.stats.injected);
  EXPECT_EQ(r1.stats.retried, r2.stats.retried);
  EXPECT_EQ(r1.stats.degraded, r2.stats.degraded);
  EXPECT_EQ(r1.stats.recovered, r2.stats.recovered);
  ASSERT_EQ(r1.losses.size(), r2.losses.size());
  for (std::size_t i = 0; i < r1.losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.losses[i], r2.losses[i]);
  }
}

TEST_F(FaultTest, TransientFaultsAreInvisibleAndAllRecovered) {
  fault::ChaosOptions opt;
  opt.spec = "h2d:p=0.2;d2h:p=0.2;collective:step=1;straggler:p=0.1,delay=1e-3";
  opt.steps = 3;
  opt.chunk_tokens = 32;
  opt.checkpoint_path = tracked("ckpt");
  const fault::ChaosResult res = fault::run_chaos(opt);
  EXPECT_TRUE(res.survived(opt.steps)) << res.report(opt.steps);
  EXPECT_GT(res.stats.injected, 0);
  EXPECT_EQ(res.stats.recovered, res.stats.injected);
  EXPECT_FALSE(res.math_degraded);
  // Retried transfers/collectives and straggler spikes are timing-only:
  // the final loss matches the fault-free twin bitwise.
  EXPECT_TRUE(res.loss_bitwise_match) << res.report(opt.steps);
}

TEST_F(FaultTest, PrefetcherDegradesToSyncBitIdentically) {
  // p=1 exhausts the transfer retry budget immediately; the prefetcher must
  // fall back to the sync migration path, which is bit-identical by
  // construction — same loss, same gradients as a fault-free run.
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 2, 4, 48);
  data::SyntheticCorpus c1(cfg.vocab, 9), c2(cfg.vocab, 9);
  const auto t1 = c1.sample(129);
  const auto t2 = c2.sample(129);
  ASSERT_EQ(t1, t2);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = 4;

  FaultInjector::instance().disable();
  nn::Model clean(cfg, 55);
  core::FpdtTrainer clean_trainer(clean, 2, fcfg);
  const double clean_loss = clean_trainer.train_step_grads(t1);

  FaultInjector::instance().configure("h2d:p=1,seed=3");
  nn::Model faulted(cfg, 55);
  core::FpdtTrainer faulted_trainer(faulted, 2, fcfg);
  const double faulted_loss = faulted_trainer.train_step_grads(t2);
  const fault::FaultStats stats = FaultInjector::instance().stats();
  FaultInjector::instance().disable();

  EXPECT_GT(stats.injected, 0);
  EXPECT_GT(stats.degraded, 0);  // sync fallback engaged
  EXPECT_DOUBLE_EQ(clean_loss, faulted_loss);
  std::vector<Tensor> gs;
  clean.visit_params([&](nn::Param& p) { gs.push_back(p.grad); });
  std::size_t i = 0;
  faulted.visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(gs[i], p.grad), 0.0) << p.name;
    ++i;
  });
}

TEST_F(FaultTest, OomDegradesByDoublingChunks) {
  fault::ResilientOptions ro;
  ro.world = 2;
  ro.cfg.chunks_per_rank = 2;
  ro.chunk_tokens = 32;
  ro.checkpoint_path = tracked("ckpt");
  FaultInjector::instance().configure("oom:step=1,count=1");
  fault::ResilientTrainer rt(ro);
  fault::StepOutcome degraded_outcome;
  for (int s = 0; s < 3; ++s) {
    const fault::StepOutcome o = rt.train_step();
    EXPECT_TRUE(std::isfinite(o.loss));
    if (o.oom_degraded) degraded_outcome = o;
  }
  FaultInjector::instance().disable();
  EXPECT_TRUE(degraded_outcome.oom_degraded);
  EXPECT_GT(degraded_outcome.attempts, 1);
  EXPECT_EQ(rt.cfg().chunks_per_rank, 4);  // 2 -> 4, exactly one doubling
  EXPECT_EQ(rt.step(), 3);
}

TEST_F(FaultTest, CrashRestoresAndReplaysBitwise) {
  const std::string faulted_ckpt = tracked("faulted.ckpt");
  auto run = [&](const std::string& spec, const std::string& ckpt) {
    FaultInjector::instance().disable();
    if (!spec.empty()) FaultInjector::instance().configure(spec);
    fault::ResilientOptions ro;
    ro.world = 2;
    ro.cfg.chunks_per_rank = 2;
    ro.chunk_tokens = 32;
    ro.checkpoint_path = ckpt;
    auto rt = std::make_unique<fault::ResilientTrainer>(ro);
    bool restored = false;
    for (int s = 0; s < 4; ++s) restored |= rt->train_step().restored;
    FaultInjector::instance().disable();
    return std::pair<std::unique_ptr<fault::ResilientTrainer>, bool>(std::move(rt), restored);
  };

  auto [faulted, restored] = run("crash:step=2,count=1", faulted_ckpt);
  auto [clean, clean_restored] = run("", tracked("clean.ckpt"));
  EXPECT_TRUE(restored);  // the injected crash forced restore-and-replay
  EXPECT_FALSE(clean_restored);

  // Restore-and-replay must be bitwise invisible: params AND Adam moments
  // match the uninterrupted run exactly.
  std::vector<Tensor> pv, pm, pvv;
  clean->model().visit_params([&](nn::Param& p) {
    pv.push_back(p.value);
    const nn::Adam::Moments& mom = clean->optimizer().reference().ensure_moments(p);
    pm.push_back(mom.m);
    pvv.push_back(mom.v);
  });
  std::size_t i = 0;
  faulted->model().visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(pv[i], p.value), 0.0) << p.name;
    const nn::Adam::Moments& mom = faulted->optimizer().reference().ensure_moments(p);
    EXPECT_EQ(max_abs_diff(pm[i], mom.m), 0.0) << p.name << ".m";
    EXPECT_EQ(max_abs_diff(pvv[i], mom.v), 0.0) << p.name << ".v";
    ++i;
  });
  EXPECT_EQ(faulted->optimizer().step_count(), clean->optimizer().step_count());
  EXPECT_EQ(faulted->step(), clean->step());
}

TEST_F(FaultTest, Zero3CrashResumeRestoresShardsBitwise) {
  // The ZeRO-3 variant of CrashRestoresAndReplaysBitwise: the snapshot is
  // the sharded envelope (FPDTZR01), and restore-and-replay must bring back
  // every rank's Adam moment shards bitwise, not just the parameters.
  auto run = [&](const std::string& spec, const std::string& ckpt) {
    FaultInjector::instance().disable();
    if (!spec.empty()) FaultInjector::instance().configure(spec);
    fault::ResilientOptions ro;
    ro.world = 2;
    ro.cfg.chunks_per_rank = 2;
    ro.cfg.zero_stage = 3;
    ro.chunk_tokens = 32;
    ro.checkpoint_path = ckpt;
    auto rt = std::make_unique<fault::ResilientTrainer>(ro);
    bool restored = false;
    for (int s = 0; s < 4; ++s) restored |= rt->train_step().restored;
    FaultInjector::instance().disable();
    return std::pair<std::unique_ptr<fault::ResilientTrainer>, bool>(std::move(rt), restored);
  };

  auto [faulted, restored] = run("crash:step=2,count=1", tracked("z3_faulted.ckpt"));
  auto [clean, clean_restored] = run("", tracked("z3_clean.ckpt"));
  EXPECT_TRUE(restored);
  EXPECT_FALSE(clean_restored);

  ASSERT_EQ(faulted->optimizer().stage(), 3);
  ASSERT_EQ(clean->optimizer().stage(), 3);
  EXPECT_EQ(faulted->optimizer().step_count(), clean->optimizer().step_count());
  EXPECT_EQ(faulted->step(), clean->step());

  std::vector<Tensor> pv;
  clean->model().visit_params([&](nn::Param& p) { pv.push_back(p.value); });
  std::size_t i = 0;
  faulted->model().visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(pv[i], p.value), 0.0) << p.name;
    ++i;
  });

  const zero::ShardedAdamState& cs = clean->optimizer().shards();
  const zero::ShardedAdamState& fs = faulted->optimizer().shards();
  ASSERT_EQ(cs.size(), fs.size());
  for (const auto& [name, ranks] : cs) {
    ASSERT_EQ(fs.count(name), 1u) << name;
    const auto& got = fs.at(name);
    ASSERT_EQ(got.size(), ranks.size()) << name;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      EXPECT_EQ(max_abs_diff(ranks[r].m, got[r].m), 0.0) << name << " rank " << r << " .m";
      EXPECT_EQ(max_abs_diff(ranks[r].v, got[r].v), 0.0) << name << " rank " << r << " .v";
    }
  }
}

TEST_F(FaultTest, CollectiveFaultDuringZeroGatherRetriesWithoutCorruption) {
  // At stage 3 the first collective of a step is the zero.gather all-gather
  // of the embedding group, so a p=1,count=1 rule lands exactly there. The
  // comm retry ladder must absorb it: same loss, same params, same moment
  // shards as the fault-free twin, bitwise.
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 2, 4, 48);
  data::SyntheticCorpus c1(cfg.vocab, 9), c2(cfg.vocab, 9);
  const auto t1 = c1.sample(129);
  const auto t2 = c2.sample(129);
  ASSERT_EQ(t1, t2);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = 4;
  fcfg.zero_stage = 3;

  auto run = [&](nn::Model& model, const std::vector<std::int32_t>& tokens,
                 zero::ShardedAdamState* shards_out) {
    core::FpdtTrainer trainer(model, 2, fcfg);
    zero::ShardedOptimizer opt(trainer.env(), zero::ZeroConfig{3});
    const double loss = trainer.train_step_grads(tokens);
    opt.step([&](const nn::ParamVisitor& v) { model.visit_params(v); });
    trainer.env().synchronize_streams();
    if (shards_out != nullptr) *shards_out = opt.shards();
    return loss;
  };

  FaultInjector::instance().disable();
  nn::Model clean(cfg, 55);
  zero::ShardedAdamState clean_shards;
  const double clean_loss = run(clean, t1, &clean_shards);

  FaultInjector::instance().reset_stats();
  FaultInjector::instance().configure("collective:p=1,count=1");
  nn::Model faulted(cfg, 55);
  zero::ShardedAdamState faulted_shards;
  const double faulted_loss = run(faulted, t2, &faulted_shards);
  const fault::FaultStats stats = FaultInjector::instance().stats();
  const auto log = FaultInjector::instance().injection_log();
  FaultInjector::instance().disable();

  EXPECT_EQ(stats.injected, 1);
  EXPECT_GT(stats.retried, 0);  // absorbed by retry, not degraded to corruption
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("site=collective"), std::string::npos) << log[0];

  EXPECT_DOUBLE_EQ(clean_loss, faulted_loss);
  std::vector<Tensor> pv;
  clean.visit_params([&](nn::Param& p) { pv.push_back(p.value); });
  std::size_t i = 0;
  faulted.visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(pv[i], p.value), 0.0) << p.name;
    ++i;
  });
  ASSERT_EQ(clean_shards.size(), faulted_shards.size());
  for (const auto& [name, ranks] : clean_shards) {
    const auto& got = faulted_shards.at(name);
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      EXPECT_EQ(max_abs_diff(ranks[r].m, got[r].m), 0.0) << name << " rank " << r;
      EXPECT_EQ(max_abs_diff(ranks[r].v, got[r].v), 0.0) << name << " rank " << r;
    }
  }
}

TEST_F(FaultTest, TrainingStateRoundTripsBitwise) {
  const std::string path = tracked("ts.ckpt");
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 2, 32);
  data::SyntheticCorpus corpus(cfg.vocab, 3);
  nn::Model a(cfg, 5);
  nn::Adam adam_a(1e-3);
  for (int s = 0; s < 2; ++s) {
    a.train_step_grads(corpus.sample(33));
    adam_a.step([&](const nn::ParamVisitor& f) { a.visit_params(f); });
  }
  nn::TrainingState ts;
  ts.step = 2;
  ts.streams["corpus"] = corpus.save_state();
  nn::save_training_state(a, adam_a, ts, path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // temp was renamed away

  nn::Model b(cfg, 99);
  nn::Adam adam_b(1e-3);
  const nn::TrainingState loaded = nn::load_training_state(b, adam_b, path);
  EXPECT_EQ(loaded.step, 2);
  EXPECT_EQ(loaded.streams.at("corpus"), ts.streams.at("corpus"));
  EXPECT_EQ(adam_b.step_count(), adam_a.step_count());
  std::vector<Tensor> pv;
  a.visit_params([&](nn::Param& p) { pv.push_back(p.value); });
  std::size_t i = 0;
  b.visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(pv[i], p.value), 0.0) << p.name;
    EXPECT_EQ(max_abs_diff(adam_a.ensure_moments(p).m, adam_b.ensure_moments(p).m), 0.0);
    EXPECT_EQ(max_abs_diff(adam_a.ensure_moments(p).v, adam_b.ensure_moments(p).v), 0.0);
    ++i;
  });

  // The restored data stream resumes bit-exactly.
  data::SyntheticCorpus resumed(cfg.vocab, 3);
  resumed.load_state(loaded.streams.at("corpus"));
  EXPECT_EQ(resumed.sample(64), corpus.sample(64));
}

TEST_F(FaultTest, CheckpointRejectsTruncationAndBitFlips) {
  const std::string path = tracked("corrupt.ckpt");
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 2, 32);
  nn::Model a(cfg, 5);
  nn::Adam adam(1e-3);
  nn::TrainingState ts;
  ts.streams["corpus"] = {1, 2, 3};
  nn::save_training_state(a, adam, ts, path);

  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 16);
  EXPECT_THROW(nn::load_training_state(a, adam, path), FpdtError);

  nn::save_training_state(a, adam, ts, path);
  {
    // Flip one bit in the middle of the payload: the checksum must catch it
    // before any state is touched.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  EXPECT_THROW(nn::load_training_state(a, adam, path), FpdtError);
}

TEST_F(FaultTest, WatchdogNamesStuckRankStreamAndChunk) {
  core::FpdtEnv env(2, core::FpdtConfig{});
  // A transfer that never retires: enqueued on rank 1's H2D queue and never
  // drained by anyone.
  env.device(1).h2d_stream().enqueue("fetch.khat.0.1", 1e-3);
  try {
    fault::check_step_quiescent(env);
    FAIL() << "watchdog accepted a stuck transfer";
  } catch (const FpdtError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("h2d"), std::string::npos) << what;
    EXPECT_NE(what.find("fetch.khat.0.1"), std::string::npos) << what;
  }
  env.synchronize_streams();
  EXPECT_NO_THROW(fault::check_step_quiescent(env));
}

TEST_F(FaultTest, DisabledInjectorIsInvisibleToTraining) {
  // The zero-overhead guard: with the injector disarmed, a streams-mode step
  // is bit-identical to the sync-mode step (the pre-existing equivalence),
  // no injections are recorded, and no fault path runs.
  FaultInjector::instance().disable();
  FaultInjector::instance().reset_stats();
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 2, 4, 48);
  data::SyntheticCorpus c1(cfg.vocab, 9), c2(cfg.vocab, 9);
  const auto t1 = c1.sample(129);
  const auto t2 = c2.sample(129);

  core::FpdtConfig streams_cfg;
  streams_cfg.chunks_per_rank = 4;
  core::FpdtConfig sync_cfg = streams_cfg;
  sync_cfg.stream_prefetch = false;

  nn::Model m1(cfg, 55);
  core::FpdtTrainer tr1(m1, 2, streams_cfg);
  const double loss_streams = tr1.train_step_grads(t1);
  nn::Model m2(cfg, 55);
  core::FpdtTrainer tr2(m2, 2, sync_cfg);
  const double loss_sync = tr2.train_step_grads(t2);

  EXPECT_DOUBLE_EQ(loss_streams, loss_sync);
  const fault::FaultStats stats = FaultInjector::instance().stats();
  EXPECT_EQ(stats.injected, 0);
  EXPECT_EQ(stats.retried, 0);
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_TRUE(FaultInjector::instance().injection_log().empty());
}

TEST_F(FaultTest, WatchdogDistinguishesSlowFromDead) {
  fault::Watchdog wd(4, /*slow_after_steps=*/1);
  for (int r = 0; r < 4; ++r) wd.heartbeat(r, 0, 1.0);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(wd.verdict(r), fault::RankHealth::kHealthy);

  // Rank 2 stops reporting while the group advances two steps: slow (its
  // heartbeat is stale but nobody declared it dead).
  for (std::int64_t step : {1, 2}) {
    for (int r : {0, 1, 3}) wd.heartbeat(r, step, 1.0 + static_cast<double>(step));
  }
  EXPECT_EQ(wd.verdict(2), fault::RankHealth::kSlow);
  EXPECT_EQ(wd.verdict(0), fault::RankHealth::kHealthy);
  const fault::Watchdog::Progress p = wd.last_progress(2);
  EXPECT_EQ(p.step, 0);
  EXPECT_FALSE(p.dead);
  EXPECT_NE(wd.summary().find("rank 2: slow"), std::string::npos) << wd.summary();

  // Catching back up clears the verdict without any membership action.
  wd.heartbeat(2, 2, 3.0);
  EXPECT_EQ(wd.verdict(2), fault::RankHealth::kHealthy);

  // Death is an explicit membership event, not a staleness threshold — and
  // a zombie heartbeat does not resurrect the rank.
  wd.mark_dead(3);
  EXPECT_EQ(wd.verdict(3), fault::RankHealth::kDead);
  wd.heartbeat(3, 9, 9.0);
  EXPECT_EQ(wd.verdict(3), fault::RankHealth::kDead);
  EXPECT_TRUE(wd.last_progress(3).dead);
  EXPECT_EQ(wd.alive_count(), 3);
  EXPECT_EQ(wd.healthy(), (std::vector<int>{0, 1, 2}));

  // Revive resets the heartbeat to the group's front so the rejoined rank
  // is not instantly judged slow.
  wd.revive(3);
  EXPECT_EQ(wd.verdict(3), fault::RankHealth::kHealthy);
  EXPECT_EQ(wd.alive_count(), 4);
}

TEST_F(FaultTest, WatchdogNeverHeardFromCountsAsStepZero) {
  fault::Watchdog wd(2, /*slow_after_steps=*/0);
  // No heartbeats at all: nobody has advanced, so nobody is slow.
  EXPECT_EQ(wd.verdict(0), fault::RankHealth::kHealthy);
  wd.heartbeat(0, 2, 1.0);
  // Rank 1 never reported while rank 0 reached step 2.
  EXPECT_EQ(wd.verdict(1), fault::RankHealth::kSlow);
  EXPECT_EQ(wd.last_progress(1).step, -1);
}

TEST_F(FaultTest, MembershipSitesParseAndDraw) {
  FaultInjector& inj = FaultInjector::instance();
  inj.configure("ranklost:step=2,rank=1;netpart:step=3;rankslow:step=1,rank=0");

  // group_event: no firing rule before its pinned step.
  inj.begin_step(0);
  EXPECT_EQ(inj.group_event(fault::Site::kRankLost, /*fallback=*/3), -1);
  inj.begin_step(2);
  EXPECT_EQ(inj.group_event(fault::Site::kRankLost, 3), 1);
  // Step-pinned rules fire once: the replayed step draws clean.
  EXPECT_EQ(inj.group_event(fault::Site::kRankLost, 3), -1);

  inj.begin_step(3);
  EXPECT_TRUE(inj.should_fail(fault::Site::kNetPart, -1));
  EXPECT_FALSE(inj.should_fail(fault::Site::kNetPart, -1));  // heals on replay

  inj.begin_step(1);
  EXPECT_TRUE(inj.should_fail(fault::Site::kRankSlow, 0));
  EXPECT_FALSE(inj.should_fail(fault::Site::kRankSlow, 1));  // other ranks keep pace

  const fault::FaultStats stats = inj.stats();
  EXPECT_EQ(stats.injected_by_site.at("ranklost"), 1);
  EXPECT_EQ(stats.injected_by_site.at("netpart"), 1);
  EXPECT_EQ(stats.injected_by_site.at("rankslow"), 1);

  // An unpinned ranklost rule names the fallback (last rank) as victim.
  inj.configure("ranklost:step=1");
  inj.begin_step(1);
  EXPECT_EQ(inj.group_event(fault::Site::kRankLost, 3), 3);

  EXPECT_THROW(inj.configure("nosuchsite:p=1"), FpdtError);
}

TEST_F(FaultTest, CorpusStateSurvivesSaveLoad) {
  data::SyntheticCorpus a(64, 17);
  a.sample(500);  // advance well past the history trim threshold? (small) —
                  // enough to populate history and copy machinery
  const auto state = a.save_state();
  const auto expect = a.sample(200);
  data::SyntheticCorpus b(64, 17);
  b.load_state(state);
  EXPECT_EQ(b.sample(200), expect);
  // Malformed states are rejected, not silently misparsed.
  EXPECT_THROW(b.load_state({1, 2, 3}), FpdtError);
  std::vector<std::uint64_t> bad = state;
  bad[4] += 1;  // history length no longer matches the payload
  EXPECT_THROW(b.load_state(bad), FpdtError);
}

}  // namespace
}  // namespace fpdt
