// Executable ZeRO (parallel/zero/): the conformance sweep that holds every
// stage bit-identical to the replicated reference, the differential oracle
// that pins the measured MemoryPool residency to perfmodel::estimate_memory,
// sharded checkpoint round-trips, and the rank-ordinal sharding edge cases
// the ZeRO trainers depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "core/fpdt_trainer.h"
#include "data/rank_ordinal.h"
#include "data/synthetic_corpus.h"
#include "nn/checkpoint_io.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "parallel/zero/sharded_optimizer.h"
#include "parallel/zero/zero_config.h"
#include "parallel/zero/zero_engine.h"
#include "perfmodel/memory_model.h"
#include "perfmodel/strategy.h"
#include "tools/cli_args.h"

namespace fpdt {
namespace {

bool bitwise_equal(double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ab == bb;
}

// ---- Conformance sweep -----------------------------------------------------
//
// One training run at a given (model, world, stage, chunks, chunk_tokens):
// FpdtTrainer forward/backward + ShardedOptimizer updates. Captures per-step
// losses, the gradients of the final step (pre-update), and the final
// parameters — everything the bit-identity property quantifies over.
struct RunResult {
  std::vector<double> losses;
  std::vector<Tensor> final_grads;
  std::vector<Tensor> final_params;
  std::vector<std::string> names;
};

RunResult run_training(const nn::ModelConfig& cfg, int world, int stage, std::int64_t chunks,
                       std::int64_t chunk_tokens, int steps) {
  nn::Model model(cfg, /*seed=*/4242);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = chunks;
  fcfg.zero_stage = stage;
  core::FpdtTrainer trainer(model, world, fcfg);
  zero::ShardedOptimizer opt(trainer.env(), zero::ZeroConfig{stage});
  data::SyntheticCorpus corpus(cfg.vocab, /*seed=*/31);
  const std::int64_t s_global = static_cast<std::int64_t>(world) * chunks * chunk_tokens;

  RunResult out;
  for (int s = 0; s < steps; ++s) {
    model.zero_grads();
    out.losses.push_back(trainer.train_step_grads(corpus.sample(s_global + 1)));
    if (s + 1 == steps) {
      model.visit_params([&](nn::Param& p) {
        out.final_grads.push_back(p.grad.clone());
        out.names.push_back(p.name);
      });
    }
    opt.step([&](const nn::ParamVisitor& v) { model.visit_params(v); });
    trainer.env().synchronize_streams();
  }
  model.visit_params([&](nn::Param& p) { out.final_params.push_back(p.value.clone()); });
  return out;
}

void expect_bitwise_identical(const RunResult& ref, const RunResult& got,
                              const std::string& tag) {
  ASSERT_EQ(ref.losses.size(), got.losses.size()) << tag;
  for (std::size_t s = 0; s < ref.losses.size(); ++s) {
    EXPECT_TRUE(bitwise_equal(ref.losses[s], got.losses[s]))
        << tag << " loss diverged at step " << s << ": " << ref.losses[s] << " vs "
        << got.losses[s];
  }
  ASSERT_EQ(ref.final_params.size(), got.final_params.size()) << tag;
  for (std::size_t i = 0; i < ref.final_params.size(); ++i) {
    EXPECT_EQ(max_abs_diff(ref.final_grads[i], got.final_grads[i]), 0.0)
        << tag << " grad " << ref.names[i];
    EXPECT_EQ(max_abs_diff(ref.final_params[i], got.final_params[i]), 0.0)
        << tag << " param " << ref.names[i];
  }
}

// Property: for every (ranks, stage, chunks, chunk_tokens, arch) drawn from
// the sweep, stages 1-3 reproduce the stage-0 replicated run bitwise — final
// loss, every per-step loss, every gradient, every updated parameter. The
// seeded generator keeps the drawn subset reproducible while still covering
// the cross-product over time.
TEST(ZeroConformance, StagesMatchReplicatedBitwiseAcrossSweep) {
  struct Case {
    int world;
    std::int64_t chunks;
    std::int64_t chunk_tokens;
    bool llama;
  };
  // Always-on corners: the degenerate single rank and the widest group.
  std::vector<Case> cases = {
      {1, 2, 32, false},
      {8, 2, 16, false},
  };
  // Seeded random middle of the sweep (ranks x chunks x tokens x arch).
  std::mt19937 gen(20250806);
  const int worlds[] = {1, 2, 4, 8};
  const std::int64_t chunk_opts[] = {1, 2, 4};
  const std::int64_t token_opts[] = {16, 32};
  for (int draw = 0; draw < 3; ++draw) {
    cases.push_back({worlds[gen() % 4], chunk_opts[gen() % 3], token_opts[gen() % 2],
                     (gen() % 2) == 0});
  }

  for (const Case& c : cases) {
    // n_head must divide the group; 8 heads shards across every world here.
    const nn::ModelConfig cfg = c.llama ? nn::tiny_llama(64, 2, 8, 8, 96)
                                        : nn::tiny_gpt(64, 2, 8, 96);
    const int steps = 2;
    const RunResult ref = run_training(cfg, c.world, /*stage=*/0, c.chunks, c.chunk_tokens, steps);
    for (int stage = 1; stage <= 3; ++stage) {
      std::ostringstream tag;
      tag << (c.llama ? "llama" : "gpt") << " P=" << c.world << " u=" << c.chunks
          << " k=" << c.chunk_tokens << " stage=" << stage;
      const RunResult got = run_training(cfg, c.world, stage, c.chunks, c.chunk_tokens, steps);
      expect_bitwise_identical(ref, got, tag.str());
    }
  }
}

// The sharded step must also match the plain nn::Adam reference — i.e. the
// ZeRO engine composes with the trainer without perturbing the pre-existing
// FpdtTrainer == nn::Adam equivalence.
TEST(ZeroConformance, Stage3MatchesUnshardedAdamReference) {
  const nn::ModelConfig cfg = nn::tiny_gpt(64, 2, 4, 96);
  const int world = 2;
  const std::int64_t chunks = 2, chunk_tokens = 32;
  const std::int64_t s_global = world * chunks * chunk_tokens;

  // Reference: stage-0 trainer + a plain replicated nn::Adam, independent of
  // ShardedOptimizer.
  nn::Model ref_model(cfg, 4242);
  core::FpdtConfig ref_cfg;
  ref_cfg.chunks_per_rank = chunks;
  ref_cfg.zero_stage = 0;
  core::FpdtTrainer ref_trainer(ref_model, world, ref_cfg);
  nn::Adam adam(1e-3);
  data::SyntheticCorpus c1(cfg.vocab, 31);
  std::vector<double> ref_losses;
  for (int s = 0; s < 3; ++s) {
    ref_model.zero_grads();
    ref_losses.push_back(ref_trainer.train_step_grads(c1.sample(s_global + 1)));
    adam.step([&](const nn::ParamVisitor& v) { ref_model.visit_params(v); });
  }

  const RunResult got = run_training(cfg, world, /*stage=*/3, chunks, chunk_tokens, 3);
  ASSERT_EQ(got.losses.size(), ref_losses.size());
  for (std::size_t s = 0; s < ref_losses.size(); ++s) {
    EXPECT_TRUE(bitwise_equal(ref_losses[s], got.losses[s])) << "step " << s;
  }
  std::size_t i = 0;
  ref_model.visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(p.value, got.final_params[i]), 0.0) << p.name;
    ++i;
  });
}

// ---- Differential oracle vs perfmodel::estimate_memory ---------------------
//
// The analytic model divides N exactly; the engine shards the *actual*
// parameter set (which includes GPT biases the analytic count omits) into
// per-parameter ceil(n/P) shards. Both effects are ~1% at tiny_gpt scale, so
// the oracle holds each component to 2% relative + 4 KiB absolute.
constexpr double kRelTol = 0.02;
constexpr double kAbsTolBytes = 4096.0;

bool within_tolerance(std::int64_t measured, std::int64_t modeled) {
  const double diff = std::abs(static_cast<double>(measured - modeled));
  return diff <= std::max(kAbsTolBytes, kRelTol * static_cast<double>(modeled));
}

// Chunk counts exercised by the footprint oracle: parsed from the repo's
// published table2_footprint.csv ("fpdt u=N" rows) so the CI lane and the
// paper artifact stay in lockstep; falls back to the published values when
// the test runs from an unexpected cwd.
std::vector<std::int64_t> footprint_chunk_counts() {
  const char* candidates[] = {
      "table2_footprint.csv",
      "../table2_footprint.csv",
      "../../table2_footprint.csv",
      "../../../table2_footprint.csv",
  };
  for (const char* path : candidates) {
    std::ifstream in(path);
    if (!in) continue;
    std::vector<std::int64_t> us;
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t pos = line.find("u=");
      if (pos == std::string::npos) continue;
      us.push_back(std::strtoll(line.c_str() + pos + 2, nullptr, 10));
    }
    if (!us.empty()) return us;
  }
  return {2, 4, 8};
}

TEST(ZeroFootprintOracle, MeasuredResidencyMatchesAnalyticModelPerStage) {
  const std::vector<std::int64_t> chunk_counts = footprint_chunk_counts();
  ASSERT_FALSE(chunk_counts.empty());
  const nn::ModelConfig cfg = nn::tiny_gpt();
  const int world = 2;
  const std::int64_t chunk_tokens = 32;

  for (const std::int64_t chunks : chunk_counts) {
    const std::int64_t s_global = world * chunks * chunk_tokens;
    for (int stage = 0; stage <= 3; ++stage) {
      nn::Model model(cfg, 7);
      core::FpdtConfig fcfg;
      fcfg.chunks_per_rank = chunks;
      fcfg.zero_stage = stage;
      core::FpdtTrainer trainer(model, world, fcfg);
      const zero::ResidentBytes measured = trainer.zero_engine().resident(0);

      perfmodel::Strategy st = perfmodel::Strategy::fpdt();
      st.zero_stage = stage;
      st.fpdt_chunk_tokens = world * chunk_tokens;
      const perfmodel::MemoryBreakdown modeled =
          perfmodel::estimate_memory(cfg, st, world, s_global);

      const struct {
        const char* component;
        std::int64_t measured, modeled;
      } rows[] = {
          {"params", measured.params, modeled.params},
          {"grads", measured.grads, modeled.grads},
          {"optimizer", measured.optimizer, modeled.optimizer},
      };
      bool ok = true;
      for (const auto& r : rows) ok &= within_tolerance(r.measured, r.modeled);
      if (!ok) {
        // Render the per-component diff the issue asks failures to carry.
        TextTable t({"stage", "component", "measured", "modeled", "delta"});
        for (const auto& r : rows) {
          t.add_row({std::to_string(stage), r.component, std::to_string(r.measured),
                     std::to_string(r.modeled), std::to_string(r.measured - r.modeled)});
        }
        std::ostringstream os;
        t.print(os);
        FAIL() << "u=" << chunks << " stage=" << stage
               << ": measured residency diverged from perfmodel::estimate_memory beyond "
               << kRelTol * 100 << "% + " << kAbsTolBytes << "B\n"
               << os.str();
      }
    }
  }
}

// The acceptance criterion: at stage 3 the resident model state is ~1/P of
// the replicated stage-0 bytes — while the final loss stays bit-identical
// (the conformance sweep above already pins losses; re-checked here on the
// same pair so the criterion is one self-contained test).
TEST(ZeroFootprintOracle, Stage3ResidencyIsOneOverPOfReplicated) {
  const nn::ModelConfig cfg = nn::tiny_gpt();
  const int world = 4;
  const std::int64_t chunks = 2, chunk_tokens = 32;

  const RunResult s0 = run_training(cfg, world, 0, chunks, chunk_tokens, 1);
  const RunResult s3 = run_training(cfg, world, 3, chunks, chunk_tokens, 1);
  EXPECT_TRUE(bitwise_equal(s0.losses.back(), s3.losses.back()));

  nn::Model m0(cfg, 7), m3(cfg, 7);
  core::FpdtConfig f0, f3;
  f0.chunks_per_rank = f3.chunks_per_rank = chunks;
  f0.zero_stage = 0;
  f3.zero_stage = 3;
  core::FpdtTrainer t0(m0, world, f0), t3(m3, world, f3);
  const std::int64_t replicated = t0.zero_engine().resident(0).total();
  const std::int64_t sharded = t3.zero_engine().resident(0).total();
  // Shard totals exceed replicated/P only by the per-parameter ceil padding.
  EXPECT_TRUE(within_tolerance(sharded, replicated / world))
      << "stage-3 resident " << sharded << " vs stage-0/" << world << " = "
      << replicated / world;
}

// Residency accounting is live, not just a static charge: a ZeRO-3 gather
// raises the rank's HBM `used` by the gathered working buffer and a release
// returns it; double-gathering one group is a caught programming error.
TEST(ZeroEngineResidency, GatherChargesAndReleasesWorkingBuffer) {
  const nn::ModelConfig cfg = nn::tiny_gpt();
  nn::Model model(cfg, 7);
  core::FpdtConfig fcfg;
  fcfg.zero_stage = 3;
  core::FpdtTrainer trainer(model, 2, fcfg);
  zero::ZeroEngine& eng = trainer.zero_engine();

  const std::int64_t base = trainer.env().device(0).hbm().used();
  const zero::ParamWalk walk = [&](const nn::ParamVisitor& v) {
    model.blocks()[0].visit(v);
  };
  std::int64_t group_elems = 0;
  walk([&](nn::Param& p) { group_elems += p.value.numel(); });

  eng.gather_group("block0", walk);
  EXPECT_EQ(trainer.env().device(0).hbm().used() - base,
            group_elems * zero::kParamBytesPerElem);
  EXPECT_THROW(eng.gather_group("block0", walk), FpdtError);
  eng.release_group("block0");
  EXPECT_EQ(trainer.env().device(0).hbm().used(), base);
}

// ---- Sharded checkpoint round-trip (FPDTZR01) ------------------------------

class ZeroCheckpoint : public ::testing::Test {
 protected:
  std::string tracked(const std::string& tag) {
    cleanup_.push_back((std::filesystem::temp_directory_path() /
                        (std::string("fpdt_zero_") + tag))
                           .string());
    return cleanup_.back();
  }
  void TearDown() override {
    for (const std::string& p : cleanup_) {
      std::remove(p.c_str());
      std::remove((p + ".tmp").c_str());
    }
  }

 private:
  std::vector<std::string> cleanup_;
};

TEST_F(ZeroCheckpoint, ShardedStateRoundTripsBitwise) {
  const std::string path = tracked("roundtrip.ckpt");
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 2, 4, 48);
  const int world = 4, stage = 3;
  const std::int64_t chunks = 2, chunk_tokens = 16;
  const std::int64_t s_global = world * chunks * chunk_tokens;

  nn::Model a(cfg, 5);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = chunks;
  fcfg.zero_stage = stage;
  core::FpdtTrainer ta(a, world, fcfg);
  zero::ShardedOptimizer oa(ta.env(), zero::ZeroConfig{stage});
  data::SyntheticCorpus corpus(cfg.vocab, 3);
  for (int s = 0; s < 2; ++s) {
    a.zero_grads();
    ta.train_step_grads(corpus.sample(s_global + 1));
    oa.step([&](const nn::ParamVisitor& v) { a.visit_params(v); });
  }
  nn::TrainingState ts;
  ts.step = 2;
  ts.streams["corpus"] = corpus.save_state();
  nn::save_sharded_training_state(a, oa.mutable_shards(), oa.step_count(), world, stage, ts,
                                  path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  nn::Model b(cfg, 99);
  nn::ShardedAdamState loaded_shards;
  const nn::ShardedRestore sr =
      nn::load_sharded_training_state(b, loaded_shards, world, stage, path);
  EXPECT_EQ(sr.adam_step, oa.step_count());
  EXPECT_EQ(sr.state.step, 2);
  EXPECT_EQ(sr.state.streams.at("corpus"), ts.streams.at("corpus"));

  std::vector<Tensor> pv;
  a.visit_params([&](nn::Param& p) { pv.push_back(p.value); });
  std::size_t i = 0;
  b.visit_params([&](nn::Param& p) {
    EXPECT_EQ(max_abs_diff(pv[i], p.value), 0.0) << p.name;
    EXPECT_EQ(max_abs_diff(p.grad, Tensor::zeros(p.grad.shape())), 0.0) << p.name << ".grad";
    ++i;
  });
  ASSERT_EQ(loaded_shards.size(), oa.shards().size());
  for (const auto& [name, ranks] : oa.shards()) {
    ASSERT_EQ(loaded_shards.count(name), 1u) << name;
    const auto& got = loaded_shards.at(name);
    ASSERT_EQ(got.size(), ranks.size()) << name;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      EXPECT_EQ(max_abs_diff(ranks[r].m, got[r].m), 0.0) << name << " rank " << r << " .m";
      EXPECT_EQ(max_abs_diff(ranks[r].v, got[r].v), 0.0) << name << " rank " << r << " .v";
    }
  }
}

TEST_F(ZeroCheckpoint, RejectsGeometryMismatchAndCorruption) {
  const std::string path = tracked("geometry.ckpt");
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 2, 32);
  nn::Model a(cfg, 5);
  nn::ShardedAdamState shards;
  nn::TrainingState ts;
  ts.streams["corpus"] = {1, 2, 3};
  nn::save_sharded_training_state(a, shards, /*adam_step=*/1, /*world=*/2, /*zero_stage=*/3,
                                  ts, path);

  nn::ShardedAdamState out;
  // Shard geometry is state: a different world or stage must be refused.
  EXPECT_THROW(nn::load_sharded_training_state(a, out, 4, 3, path), FpdtError);
  EXPECT_THROW(nn::load_sharded_training_state(a, out, 2, 1, path), FpdtError);
  EXPECT_NO_THROW(nn::load_sharded_training_state(a, out, 2, 3, path));

  // The replicated loader must refuse the sharded magic, and vice versa.
  nn::Adam adam(1e-3);
  EXPECT_THROW(nn::load_training_state(a, adam, path), FpdtError);

  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 8);
  EXPECT_THROW(nn::load_sharded_training_state(a, out, 2, 3, path), FpdtError);
}

// ---- Rank-ordinal sharding edge cases --------------------------------------

TEST(RankOrdinalEdgeCases, IndivisibleSequenceIsRefused) {
  data::RankOrdinalSharder sharder(/*world=*/2, /*chunks_per_rank=*/4);
  // 100 tokens cannot split into P*u = 8 chunks; the +1 is the final label.
  std::vector<std::int32_t> tokens(101, 1);
  EXPECT_THROW(sharder.shard_tokens(tokens), FpdtError);
  // Off-by-one in the label convention: s_global + 1 is required, a bare
  // multiple of P*u lacks the final label and is also refused.
  std::vector<std::int32_t> bare(96, 1);
  EXPECT_THROW(sharder.shard_tokens(bare), FpdtError);
}

TEST(RankOrdinalEdgeCases, SingleRankLayoutIsIdentity) {
  data::RankOrdinalSharder sharder(/*world=*/1, /*chunks_per_rank=*/4);
  std::vector<std::int32_t> tokens(33);
  for (std::size_t i = 0; i < tokens.size(); ++i) tokens[i] = static_cast<std::int32_t>(i);
  const auto shards = sharder.shard_tokens(tokens);
  ASSERT_EQ(shards.size(), 1u);
  const data::RankShard& s = shards[0];
  ASSERT_EQ(s.inputs.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(s.inputs[i], tokens[i]) << i;
    EXPECT_EQ(s.labels[i], tokens[i + 1]) << i;
  }
  ASSERT_EQ(s.chunk_pos0.size(), 4u);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(sharder.global_chunk(0, c), c);
    EXPECT_EQ(s.chunk_pos0[static_cast<std::size_t>(c)], c * 8);
  }
}

TEST(RankOrdinalEdgeCases, LabelReorderMatchesTokenReorder) {
  const int world = 2;
  const std::int64_t u = 2, k = 8;  // chunk size s_global / (P*u)
  data::RankOrdinalSharder sharder(world, u);
  std::vector<std::int32_t> tokens(world * u * k + 1);
  for (std::size_t i = 0; i < tokens.size(); ++i) tokens[i] = static_cast<std::int32_t>(i);
  const auto shards = sharder.shard_tokens(tokens);
  ASSERT_EQ(shards.size(), 2u);
  for (int r = 0; r < world; ++r) {
    const data::RankShard& s = shards[static_cast<std::size_t>(r)];
    for (std::int64_t c = 0; c < u; ++c) {
      const std::int64_t g0 = sharder.global_chunk(r, c) * k;
      EXPECT_EQ(s.chunk_pos0[static_cast<std::size_t>(c)], g0);
      for (std::int64_t j = 0; j < k; ++j) {
        // The label of every reordered token is the *globally* next token —
        // exactly what the reordered input stream pairs it with.
        EXPECT_EQ(s.inputs[static_cast<std::size_t>(c * k + j)],
                  tokens[static_cast<std::size_t>(g0 + j)]);
        EXPECT_EQ(s.labels[static_cast<std::size_t>(c * k + j)],
                  tokens[static_cast<std::size_t>(g0 + j + 1)]);
      }
    }
  }
}

// ---- Stage range -----------------------------------------------------------
//
// 0..3 are the only stages: a config built in code outside that range fails
// when the trainer is built, and `--zero-stage` rejects it at parse time.
TEST(ZeroStageRange, TrainerRejectsStageOutsideZeroToThree) {
  const nn::ModelConfig cfg = nn::tiny_gpt();
  for (int stage : {-1, 4}) {
    nn::Model model(cfg, 7);
    core::FpdtConfig fcfg;
    fcfg.zero_stage = stage;
    EXPECT_THROW(core::FpdtTrainer(model, 2, fcfg), FpdtError) << "stage " << stage;
  }
}

TEST(ZeroStageRange, CliFlagRejectsStageOutsideZeroToThree) {
  const auto parse = [](std::string value) {
    std::string flag = "--zero-stage";
    char* argv[] = {flag.data(), value.data()};
    int stage = -7;
    cli::FlagParser f("profile", 2, argv, 0);
    EXPECT_TRUE(f.match_in("--zero-stage", &stage, 0, 3));
    return stage;
  };
  EXPECT_EQ(parse("0"), 0);
  EXPECT_EQ(parse("3"), 3);
  for (const char* bad : {"-1", "4", "two", "1x", ""}) {
    try {
      parse(bad);
      ADD_FAILURE() << "accepted --zero-stage '" << bad << "'";
    } catch (const FpdtError& e) {
      EXPECT_NE(std::string(e.what()).find("--zero-stage must be in 0..3"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace fpdt
