// Tests of the FPDT core: rank-ordinal sharding (Fig. 6), the chunk store,
// and — most importantly — numerical equivalence of the fully pipelined
// chunked/offloaded block executor and trainer against the single-device
// reference, across world sizes, chunk counts, offload modes and both
// model families.
#include <gtest/gtest.h>

#include "core/chunk_store.h"
#include "core/fpdt_block.h"
#include "core/fpdt_trainer.h"
#include "data/rank_ordinal.h"
#include "data/synthetic_corpus.h"
#include "nn/model.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

using core::ChunkStore;
using core::FpdtBlockExecutor;
using core::FpdtConfig;
using core::FpdtEnv;
using core::FpdtTrainer;
using data::RankOrdinalSharder;

// ---- Rank-ordinal sharding --------------------------------------------------

TEST(RankOrdinalTest, GlobalChunkMapping) {
  RankOrdinalSharder sh(4, 3);
  EXPECT_EQ(sh.global_chunk(0, 0), 0);
  EXPECT_EQ(sh.global_chunk(3, 0), 3);
  EXPECT_EQ(sh.global_chunk(1, 2), 9);
}

TEST(RankOrdinalTest, GatheredChunksAreContiguous) {
  // The i-th All2All gathers local chunk i from every rank: global chunks
  // {i*P + r : r} — exactly the contiguous range [i*P, (i+1)*P). This is
  // the property that keeps the diagonal causal mask valid.
  const int P = 4;
  const std::int64_t u = 3;
  RankOrdinalSharder sh(P, u);
  for (std::int64_t i = 0; i < u; ++i) {
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(sh.global_chunk(r, i), i * P + r);
    }
    EXPECT_EQ(sh.global_chunk(0, i), i * P);
    EXPECT_EQ(sh.global_chunk(P - 1, i), (i + 1) * P - 1);
  }
}

TEST(RankOrdinalTest, TensorShardUnshardRoundTrip) {
  Rng rng(1);
  RankOrdinalSharder sh(4, 2);
  Tensor full = Tensor::randn({32, 3}, rng);
  auto locals = sh.shard_tensor(full);
  ASSERT_EQ(locals.size(), 4u);
  EXPECT_EQ(locals[0].dim(0), 8);
  Tensor back = sh.unshard_tensor(locals);
  EXPECT_LT(max_abs_diff(back, full), 1e-7);
}

TEST(RankOrdinalTest, TokenShardPositionsAndLabels) {
  RankOrdinalSharder sh(2, 2);
  std::vector<std::int32_t> tokens;
  for (int i = 0; i <= 16; ++i) tokens.push_back(i * 10);
  auto shards = sh.shard_tokens(tokens);
  ASSERT_EQ(shards.size(), 2u);
  // s_global = 16, 4 chunks of 4. Rank 0 holds global chunks 0, 2.
  EXPECT_EQ(shards[0].chunk_pos0, (std::vector<std::int64_t>{0, 8}));
  EXPECT_EQ(shards[1].chunk_pos0, (std::vector<std::int64_t>{4, 12}));
  EXPECT_EQ(shards[0].inputs[0], 0);
  EXPECT_EQ(shards[0].inputs[4], 80);   // chunk 2 starts at global pos 8
  EXPECT_EQ(shards[1].inputs[0], 40);
  // Labels are the next-token ids at the same shuffled positions.
  for (std::size_t t = 0; t < shards[0].inputs.size(); ++t) {
    EXPECT_EQ(shards[0].labels[t], shards[0].inputs[t] + 10);
  }
}

TEST(RankOrdinalTest, IndivisibleSequenceThrows) {
  RankOrdinalSharder sh(4, 2);
  std::vector<std::int32_t> tokens(18, 0);  // s_global = 17, not divisible by 8
  EXPECT_THROW(sh.shard_tokens(tokens), FpdtError);
}

// ---- Chunk store ------------------------------------------------------------

TEST(ChunkStoreTest, OffloadMovesChargesToHost) {
  runtime::Device dev(0, -1);
  runtime::Host host;
  ChunkStore store(dev, host, /*offload=*/true);
  Rng rng(2);
  store.put("k.0.0", dev.alloc(Tensor::randn({4, 2, 2}, rng)));
  EXPECT_EQ(dev.hbm().used(), 0);
  EXPECT_EQ(host.pool().used(), 32);
  runtime::Buffer copy = store.fetch_copy("k.0.0");
  EXPECT_EQ(dev.hbm().used(), 32);
  EXPECT_EQ(host.pool().used(), 32);  // cached copy still resident
  copy.release();
  runtime::Buffer taken = store.take("k.0.0");
  EXPECT_EQ(host.pool().used(), 0);
  EXPECT_EQ(dev.hbm().used(), 32);
  EXPECT_FALSE(store.contains("k.0.0"));
}

TEST(ChunkStoreTest, ResidentModeKeepsHbmCharge) {
  runtime::Device dev(0, -1);
  runtime::Host host;
  ChunkStore store(dev, host, /*offload=*/false);
  Rng rng(3);
  store.put("k.0.0", dev.alloc(Tensor::randn({4, 2, 2}, rng)));
  EXPECT_EQ(dev.hbm().used(), 32);
  EXPECT_EQ(host.pool().used(), 0);
  EXPECT_EQ(dev.transfers().d2h_bytes, 0);
}

TEST(ChunkStoreTest, DuplicateAndMissingKeysThrow) {
  runtime::Device dev(0, -1);
  runtime::Host host;
  ChunkStore store(dev, host, true);
  store.put("a", dev.alloc(Tensor::zeros({1})));
  EXPECT_THROW(store.put("a", dev.alloc(Tensor::zeros({1}))), FpdtError);
  EXPECT_THROW(store.take("b"), FpdtError);
  EXPECT_THROW(store.fetch_copy("b"), FpdtError);
}

// ---- Synthetic corpus -------------------------------------------------------

TEST(SyntheticCorpusTest, DeterministicAndInVocab) {
  data::SyntheticCorpus a(64, 9), b(64, 9);
  auto sa = a.sample(512);
  auto sb = b.sample(512);
  EXPECT_EQ(sa, sb);
  for (std::int32_t t : sa) EXPECT_TRUE(t >= 0 && t < 64);
  data::SyntheticCorpus c(64, 10);
  EXPECT_NE(sa, c.sample(512));
}

TEST(SyntheticCorpusTest, HasLearnableStructure) {
  // The Markov backbone makes the most common successor of each token much
  // more likely than chance.
  data::SyntheticCorpus corpus(32, 11);
  auto s = corpus.sample(20000);
  std::vector<std::vector<int>> follow(32, std::vector<int>(32, 0));
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    follow[static_cast<std::size_t>(s[i])][static_cast<std::size_t>(s[i + 1])]++;
  }
  int peaked = 0, seen = 0;
  for (int t = 0; t < 32; ++t) {
    int total = 0, best = 0;
    for (int n = 0; n < 32; ++n) {
      total += follow[static_cast<std::size_t>(t)][static_cast<std::size_t>(n)];
      best = std::max(best, follow[static_cast<std::size_t>(t)][static_cast<std::size_t>(n)]);
    }
    if (total > 100) {
      ++seen;
      if (best > total / 2) ++peaked;
    }
  }
  ASSERT_GT(seen, 10);
  EXPECT_GT(peaked, seen / 2);
}

// ---- FPDT block executor equivalence ---------------------------------------

struct FpdtCase {
  int world;
  int chunks;
  bool offload;
  bool double_buffer;
  bool llama;
};

// Names the case in the ctest id (".../w2_u3_offload_db_gpt"); without it
// gtest prints the raw bytes, padding included, which vary between builds.
void PrintTo(const FpdtCase& c, std::ostream* os) {
  *os << "w" << c.world << "_u" << c.chunks << (c.offload ? "_offload" : "_resident")
      << (c.double_buffer ? "_db" : "") << (c.llama ? "_llama" : "_gpt");
}

class FpdtBlockParam : public ::testing::TestWithParam<FpdtCase> {};

nn::ModelConfig case_config(const FpdtCase& c) {
  // kv heads must divide the world size for the Ulysses all2all.
  return c.llama ? nn::tiny_llama(32, 1, 4, c.world > 2 ? 4 : 2, 64)
                 : nn::tiny_gpt(32, 1, 4, 64);
}

TEST_P(FpdtBlockParam, ForwardMatchesReference) {
  const FpdtCase c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng wrng(77);
  nn::TransformerBlock block("b", cfg, wrng);

  const std::int64_t s_global = static_cast<std::int64_t>(c.world) * c.chunks * 4;
  Rng xrng(78);
  Tensor x = Tensor::randn({s_global, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor ref = block.forward_only(x);

  FpdtConfig fcfg;
  fcfg.chunks_per_rank = c.chunks;
  fcfg.offload = c.offload;
  fcfg.double_buffer = c.double_buffer;
  FpdtEnv env(c.world, fcfg);
  FpdtBlockExecutor exec(block, 0, env);
  RankOrdinalSharder sh(c.world, c.chunks);
  std::vector<Tensor> z = exec.forward(sh.shard_tensor(x));
  Tensor got = sh.unshard_tensor(z);
  EXPECT_LT(max_abs_diff(got, ref), 2e-4);
}

TEST_P(FpdtBlockParam, BackwardMatchesReference) {
  const FpdtCase c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng wrng(80);
  nn::TransformerBlock ref_block("b", cfg, wrng);
  Rng wrng2(80);
  nn::TransformerBlock fpdt_block("b", cfg, wrng2);

  const std::int64_t s_global = static_cast<std::int64_t>(c.world) * c.chunks * 4;
  Rng xrng(81);
  Tensor x = Tensor::randn({s_global, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor dz = Tensor::randn({s_global, cfg.d_model}, xrng, 0.0, 0.5);

  Tensor ref_dx = ref_block.backward_with_recompute(dz, x);

  FpdtConfig fcfg;
  fcfg.chunks_per_rank = c.chunks;
  fcfg.offload = c.offload;
  fcfg.double_buffer = c.double_buffer;
  FpdtEnv env(c.world, fcfg);
  FpdtBlockExecutor exec(fpdt_block, 0, env);
  RankOrdinalSharder sh(c.world, c.chunks);
  std::vector<Tensor> dx_local = exec.backward(sh.shard_tensor(dz), sh.shard_tensor(x));
  Tensor got_dx = sh.unshard_tensor(dx_local);
  EXPECT_LT(max_abs_diff(got_dx, ref_dx), 5e-4);

  // Weight gradients: per-rank accumulation into shared tensors reproduces
  // the gradient all-reduce.
  std::vector<Tensor> ref_grads, fpdt_grads;
  std::vector<std::string> names;
  ref_block.visit([&](nn::Param& p) {
    ref_grads.push_back(p.grad.clone());
    names.push_back(p.name);
  });
  fpdt_block.visit([&](nn::Param& p) { fpdt_grads.push_back(p.grad.clone()); });
  ASSERT_EQ(ref_grads.size(), fpdt_grads.size());
  for (std::size_t i = 0; i < ref_grads.size(); ++i) {
    EXPECT_LT(max_abs_diff(ref_grads[i], fpdt_grads[i]), 5e-3) << names[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FpdtBlockParam,
    ::testing::Values(FpdtCase{1, 1, false, false, false},  // degenerate = Ulysses P=1
                      FpdtCase{1, 4, true, true, false},    // chunking only, single rank
                      FpdtCase{2, 2, false, false, false},  // multi-rank, resident chunks
                      FpdtCase{2, 3, true, false, false},   // offload, strict single buffer
                      FpdtCase{2, 3, true, true, false},    // offload + double buffer
                      FpdtCase{4, 2, true, true, false},    // 4 ranks
                      FpdtCase{4, 4, true, true, false},    // 4 ranks, more chunks
                      FpdtCase{2, 2, true, true, true},     // Llama (RMSNorm/SwiGLU/GQA)
                      FpdtCase{4, 2, true, true, true}));   // Llama on 4 ranks

// ---- Memory behaviour -------------------------------------------------------

TEST(FpdtMemoryTest, ChunkingShrinksActivationPeak) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  Rng wrng(90);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(91);
  const std::int64_t s_global = 64;
  Tensor x = Tensor::randn({s_global, cfg.d_model}, xrng);

  auto peak_with = [&](std::int64_t chunks, bool offload) {
    FpdtConfig fcfg;
    fcfg.chunks_per_rank = chunks;
    fcfg.offload = offload;
    FpdtEnv env(2, fcfg);
    FpdtBlockExecutor exec(block, 0, env);
    RankOrdinalSharder sh(2, chunks);
    exec.forward(sh.shard_tensor(x));
    return env.max_hbm_peak();
  };

  const std::int64_t mono = peak_with(1, false);
  const std::int64_t chunked = peak_with(4, false);
  const std::int64_t offloaded = peak_with(4, true);
  EXPECT_LT(chunked, mono);
  EXPECT_LT(offloaded, chunked);  // offload strips the resident KV cache
}

TEST(FpdtMemoryTest, OffloadTrafficAccounted) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  Rng wrng(92);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(93);
  Tensor x = Tensor::randn({64, cfg.d_model}, xrng);
  FpdtConfig fcfg;
  fcfg.chunks_per_rank = 4;
  fcfg.offload = true;
  FpdtEnv env(2, fcfg);
  FpdtBlockExecutor exec(block, 0, env);
  RankOrdinalSharder sh(2, 4);
  exec.forward(sh.shard_tensor(x));
  EXPECT_GT(env.device(0).transfers().d2h_bytes, 0);
  EXPECT_GT(env.device(0).transfers().h2d_bytes, 0);
  // Without offload there is no host traffic at all.
  FpdtConfig rcfg = fcfg;
  rcfg.offload = false;
  FpdtEnv env2(2, rcfg);
  FpdtBlockExecutor exec2(block, 0, env2);
  exec2.forward(sh.shard_tensor(x));
  EXPECT_EQ(env2.device(0).transfers().d2h_bytes, 0);
}

TEST(FpdtMemoryTest, TightHbmCapacityOoms) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  Rng wrng(94);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(95);
  Tensor x = Tensor::randn({64, cfg.d_model}, xrng);
  FpdtConfig fcfg;
  fcfg.chunks_per_rank = 1;
  FpdtEnv env(2, fcfg, /*hbm_capacity=*/4 * 1024);
  FpdtBlockExecutor exec(block, 0, env);
  RankOrdinalSharder sh(2, 1);
  EXPECT_THROW(exec.forward(sh.shard_tensor(x)), OutOfMemoryError);
}

// ---- End-to-end trainer equivalence ------------------------------------------

class FpdtTrainerParam : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(FpdtTrainerParam, StepMatchesReferenceModel) {
  auto [world, chunks, llama] = GetParam();
  nn::ModelConfig cfg = llama ? nn::tiny_llama(32, 2, 4, 4, 48) : nn::tiny_gpt(32, 2, 4, 48);
  nn::Model ref(cfg, 321);
  nn::Model dist(cfg, 321);

  data::SyntheticCorpus corpus(cfg.vocab, 55);
  const std::int64_t s_global = static_cast<std::int64_t>(world) * chunks * 4;
  std::vector<std::int32_t> tokens = corpus.sample(s_global + 1);

  const double ref_loss = ref.train_step_grads(tokens);

  FpdtConfig fcfg;
  fcfg.chunks_per_rank = chunks;
  FpdtTrainer trainer(dist, world, fcfg);
  const double fpdt_loss = trainer.train_step_grads(tokens);

  EXPECT_NEAR(ref_loss, fpdt_loss, 1e-4);

  std::vector<Tensor> ref_grads, dist_grads;
  std::vector<std::string> names;
  ref.visit_params([&](nn::Param& p) {
    ref_grads.push_back(p.grad.clone());
    names.push_back(p.name);
  });
  dist.visit_params([&](nn::Param& p) { dist_grads.push_back(p.grad.clone()); });
  ASSERT_EQ(ref_grads.size(), dist_grads.size());
  for (std::size_t i = 0; i < ref_grads.size(); ++i) {
    const double scale = std::max(1.0, l2_norm(ref_grads[i]));
    EXPECT_LT(max_abs_diff(ref_grads[i], dist_grads[i]) / scale, 2e-3) << names[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FpdtTrainerParam,
                         ::testing::Values(std::tuple{2, 2, false}, std::tuple{4, 2, false},
                                           std::tuple{2, 4, false}, std::tuple{2, 2, true},
                                           std::tuple{4, 2, true}));

TEST(FpdtTrainerTest, MultiStepTrainingTracksReference) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 2, 4, 48);
  nn::Model ref(cfg, 500);
  nn::Model dist(cfg, 500);
  nn::Adam opt_ref(1e-3), opt_dist(1e-3);
  FpdtConfig fcfg;
  fcfg.chunks_per_rank = 2;
  FpdtTrainer trainer(dist, 2, fcfg);
  data::SyntheticCorpus c1(cfg.vocab, 60), c2(cfg.vocab, 60);
  for (int step = 0; step < 5; ++step) {
    std::vector<std::int32_t> t1 = c1.sample(33);
    std::vector<std::int32_t> t2 = c2.sample(33);
    ASSERT_EQ(t1, t2);
    const double l_ref = ref.train_step_grads(t1);
    const double l_dist = trainer.train_step_grads(t2);
    EXPECT_NEAR(l_ref, l_dist, 5e-4) << "step " << step;
    opt_ref.step([&](const nn::ParamVisitor& fn) { ref.visit_params(fn); });
    opt_dist.step([&](const nn::ParamVisitor& fn) { dist.visit_params(fn); });
  }
}

}  // namespace
}  // namespace fpdt
