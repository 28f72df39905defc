// End-to-end equivalence of every strategy's training step (FPDT, Ulysses,
// Megatron-SP, Ring Attention — one loop, four presets) against the
// single-device reference model, batch-mode gradient accumulation, the
// sequence loader, and the chrome trace export.
#include <gtest/gtest.h>

#include <deque>

#include "core/fpdt_trainer.h"
#include "data/loader.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "parallel/baseline_trainer.h"
#include "parallel/strategy.h"
#include "sim/pipeline_sim.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

using core::FpdtConfig;
using core::FpdtTrainer;
using parallel::BaselineKind;
using parallel::BaselineTrainer;
using parallel::Strategy;

// FPDT runs two chunks per rank; the baselines' presets override it to one.
FpdtConfig two_chunk_config() {
  FpdtConfig cfg;
  cfg.chunks_per_rank = 2;
  return cfg;
}

struct TrainerCase {
  Strategy strategy;
  int world;
  bool llama;
};

// Names the case in the ctest id (".../megatron-sp_w4_llama"); without it
// gtest prints the raw bytes, padding included, which vary between builds.
void PrintTo(const TrainerCase& c, std::ostream* os) {
  *os << parallel::strategy_name(c.strategy) << "_w" << c.world << (c.llama ? "_llama" : "_gpt");
}

std::vector<TrainerCase> trainer_cases() {
  std::vector<TrainerCase> cases;
  for (const Strategy s : parallel::kStrategies) {
    cases.push_back({s, 2, false});
    cases.push_back({s, 4, false});
    cases.push_back({s, 4, true});
  }
  return cases;
}

class StrategyParam : public ::testing::TestWithParam<TrainerCase> {};

TEST_P(StrategyParam, StepMatchesReferenceModel) {
  const TrainerCase c = GetParam();
  nn::ModelConfig cfg =
      c.llama ? nn::tiny_llama(32, 2, 4, 4, 48) : nn::tiny_gpt(32, 2, 4, 48);
  nn::Model ref(cfg, 777);
  nn::Model dist(cfg, 777);

  data::SyntheticCorpus corpus(cfg.vocab, 12);
  const std::int64_t s_global = static_cast<std::int64_t>(c.world) * 8;
  const auto tokens = corpus.sample(s_global + 1);

  const double ref_loss = ref.train_step_grads(tokens);
  const auto trainer = parallel::make_trainer(c.strategy, dist, c.world, two_chunk_config());
  const double dist_loss = trainer->train_step_grads(tokens);
  EXPECT_NEAR(ref_loss, dist_loss, 1e-4);

  std::vector<Tensor> ga;
  std::vector<std::string> names;
  ref.visit_params([&](nn::Param& p) {
    ga.push_back(p.grad);
    names.push_back(p.name);
  });
  std::size_t i = 0;
  dist.visit_params([&](nn::Param& p) {
    const double scale = std::max(1.0, l2_norm(ga[i]));
    EXPECT_LT(max_abs_diff(ga[i], p.grad) / scale, 2e-3) << names[i];
    ++i;
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrategyParam, ::testing::ValuesIn(trainer_cases()));

TEST(CrossStrategyTest, AllStrategiesConvergeIdentically) {
  // The strongest form of Fig. 14: every strategy in the table produces the
  // same multi-step training trajectory from the same seed.
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 48);
  nn::Model m_ref(cfg, 31);
  nn::Adam o_ref(1e-3);
  std::deque<nn::Model> models;  // trainers keep pointers: no relocation
  std::vector<std::unique_ptr<FpdtTrainer>> trainers;
  std::vector<nn::Adam> opts;
  for (const Strategy s : parallel::kStrategies) {
    models.emplace_back(cfg, 31);
    trainers.push_back(parallel::make_trainer(s, models.back(), 2, two_chunk_config()));
    opts.emplace_back(1e-3);
  }
  data::SyntheticCorpus corpus(cfg.vocab, 99);
  for (int step = 0; step < 4; ++step) {
    const auto tokens = corpus.sample(17);
    const double l_ref = m_ref.train_step_grads(tokens);
    o_ref.step([&](const nn::ParamVisitor& f) { m_ref.visit_params(f); });
    for (std::size_t i = 0; i < trainers.size(); ++i) {
      EXPECT_NEAR(trainers[i]->train_step_grads(tokens), l_ref, 5e-4)
          << parallel::strategy_name(parallel::kStrategies[i]) << " step " << step;
      opts[i].step([&](const nn::ParamVisitor& f) { models[i].visit_params(f); });
    }
  }
}

TEST(BaselineTrainerTest, IndivisibleSequenceThrows) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 48);
  nn::Model m(cfg, 1);
  BaselineTrainer t(m, 4, BaselineKind::kUlysses);
  std::vector<std::int32_t> tokens(12, 1);  // s_global = 11, % 4 != 0
  EXPECT_THROW(t.train_step_grads(tokens), FpdtError);
}

TEST(BaselineTrainerTest, LogitsSpikeVisibleOnDevice) {
  // The baselines' unchunked loss head must charge the full FP32 logits
  // buffer — the §5.4 spike FPDT removes.
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 128);
  nn::Model m(cfg, 1);
  BaselineTrainer t(m, 2, BaselineKind::kUlysses);
  data::SyntheticCorpus corpus(cfg.vocab, 5);
  t.train_step_grads(corpus.sample(17));
  // Peak must include s_local * vocab * 4 bytes of logits.
  EXPECT_GE(t.env().device(0).hbm().peak(), 8 * cfg.vocab * 4);
}

// ---- Batch training ----------------------------------------------------------

TEST(BatchTrainingTest, BatchGradEqualsMeanOfSequenceGrads) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 48);
  nn::Model a(cfg, 9), b(cfg, 9);
  FpdtConfig fcfg;
  fcfg.chunks_per_rank = 2;
  FpdtTrainer ta(a, 2, fcfg), tb(b, 2, fcfg);
  data::SyntheticCorpus corpus(cfg.vocab, 3);
  const auto s1 = corpus.sample(17);
  const auto s2 = corpus.sample(17);

  const double batch_loss = ta.train_batch_grads({s1, s2});

  tb.train_step_grads(s1);
  std::vector<Tensor> g1;
  b.visit_params([&](nn::Param& p) { g1.push_back(p.grad.clone()); });
  b.zero_grads();
  tb.train_step_grads(s2);
  std::size_t i = 0;
  std::vector<Tensor> mean_grads;
  b.visit_params([&](nn::Param& p) {
    Tensor mean = add(g1[i], p.grad);
    scale_(mean, 0.5f);
    mean_grads.push_back(std::move(mean));
    ++i;
  });

  i = 0;
  a.visit_params([&](nn::Param& p) {
    EXPECT_LT(max_abs_diff(p.grad, mean_grads[i]), 1e-6) << p.name;
    ++i;
  });
  EXPECT_GT(batch_loss, 0.0);
}

TEST(BatchTrainingTest, EmptyBatchThrows) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 48);
  nn::Model m(cfg, 1);
  FpdtConfig fcfg;
  fcfg.chunks_per_rank = 1;
  FpdtTrainer t(m, 2, fcfg);
  EXPECT_THROW(t.train_batch_grads({}), FpdtError);
}

// ---- Sequence loader -----------------------------------------------------------

TEST(SequenceLoaderTest, BatchShapesAndDeterminism) {
  data::SequenceLoader a(data::SyntheticCorpus(64, 4), 32);
  data::SequenceLoader b(data::SyntheticCorpus(64, 4), 32);
  auto batch_a = a.next_batch(3);
  auto batch_b = b.next_batch(3);
  ASSERT_EQ(batch_a.size(), 3u);
  EXPECT_EQ(batch_a[0].size(), 33u);
  EXPECT_EQ(batch_a, batch_b);
  EXPECT_EQ(a.sequences_served(), 3);
}

TEST(SequenceLoaderTest, HoldoutSplitsDeterministically) {
  data::SequenceLoader loader(data::SyntheticCorpus(64, 4), 16, /*holdout_every=*/3);
  loader.next_batch(6);
  // Serving 6 training sequences produces 8 total; #3 and #6 are held out.
  EXPECT_EQ(loader.validation_set().size(), 2u);
  EXPECT_EQ(loader.sequences_served(), 6);
  // Validation sequences never appear in training batches: disjoint by
  // construction of the modulo split (spot-check first holdout).
  data::SequenceLoader replay(data::SyntheticCorpus(64, 4), 16);
  auto all = replay.next_batch(9);
  EXPECT_EQ(loader.validation_set()[0], all[2]);  // 3rd produced sequence
}

TEST(SequenceLoaderTest, PerplexityEvaluator) {
  std::vector<std::vector<std::int32_t>> seqs = {{1, 2}, {3, 4}};
  auto fixed = [](const std::vector<std::int32_t>&) { return 1.0; };
  data::EvalResult r = data::evaluate_perplexity(seqs, fixed);
  EXPECT_EQ(r.sequences, 2);
  EXPECT_NEAR(r.mean_loss, 1.0, 1e-12);
  EXPECT_NEAR(r.perplexity, std::exp(1.0), 1e-9);
  EXPECT_EQ(data::evaluate_perplexity({}, fixed).sequences, 0);
}

TEST(SequenceLoaderTest, PerplexityFallsDuringTraining) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 2, 4, 48);
  nn::Model model(cfg, 21);
  FpdtConfig fcfg;
  fcfg.chunks_per_rank = 2;
  FpdtTrainer trainer(model, 2, fcfg);
  nn::Adam opt(2e-3);
  data::SequenceLoader loader(data::SyntheticCorpus(cfg.vocab, 8), 64, /*holdout_every=*/5);
  auto eval_fn = [&](const std::vector<std::int32_t>& s) { return model.eval_loss(s); };

  loader.next_batch(8);  // populate some validation sequences (every 5th)
  const data::EvalResult before = data::evaluate_perplexity(loader.validation_set(), eval_fn);
  for (int step = 0; step < 15; ++step) {
    trainer.train_batch_grads(loader.next_batch(2));
    opt.step([&](const nn::ParamVisitor& f) { model.visit_params(f); });
  }
  const data::EvalResult after = data::evaluate_perplexity(loader.validation_set(), eval_fn);
  EXPECT_LT(after.perplexity, before.perplexity * 0.8);
}

// ---- Chrome trace --------------------------------------------------------------

TEST(ChromeTraceTest, WellFormedAndComplete) {
  sim::PipelineSim ps;
  const int comp = ps.add_resource("compute");
  const int dma = ps.add_resource("h2d");
  const int t0 = ps.add_task(dma, 0.5, {}, "fetch");
  ps.add_task(comp, 1.0, {t0}, "attn");
  EXPECT_THROW(ps.chrome_trace_json(), FpdtError);  // before run()
  ps.run();
  const std::string json = ps.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"attn\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);  // attn starts at 0.5s
  // Balanced braces/brackets as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace fpdt
