// Equivalence tests for the baseline sequence-parallel strategies: Ulysses,
// Megatron-SP (TP + sequence parallel) and Ring Attention all must match the
// single-device reference block bit-for-bit up to FP32 reduction order —
// these baselines anchor every comparison figure in the paper.
#include <gtest/gtest.h>

#include "core/fpdt_env.h"
#include "nn/model.h"
#include "parallel/megatron_sp.h"
#include "parallel/ring_attention.h"
#include "parallel/strategy.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

using core::FpdtConfig;
using core::FpdtEnv;
using parallel::MegatronSpBlockExecutor;
using parallel::RingAttentionBlockExecutor;
using parallel::Strategy;

// Contiguous sequence sharding used by all three baselines.
std::vector<Tensor> contiguous_shard(const Tensor& full, int world) {
  const std::int64_t s_l = full.dim(0) / world;
  std::vector<Tensor> out;
  for (int r = 0; r < world; ++r) out.push_back(full.slice0(r * s_l, (r + 1) * s_l).clone());
  return out;
}

Tensor contiguous_unshard(const std::vector<Tensor>& locals) {
  return concat0(locals);
}

struct Case {
  int world;
  bool llama;
};

// Names the case in the ctest id (".../w4_llama"); without it gtest prints
// the raw bytes, padding included, which vary between builds.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "w" << c.world << (c.llama ? "_llama" : "_gpt");
}

class BaselineParam : public ::testing::TestWithParam<Case> {};

nn::ModelConfig case_config(const Case& c) {
  return c.llama ? nn::tiny_llama(32, 1, 4, c.world > 2 ? 4 : 2, 64)
                 : nn::tiny_gpt(32, 1, 4, 64);
}

void expect_weight_grads_match(nn::TransformerBlock& a, nn::TransformerBlock& b, double tol) {
  std::vector<Tensor> ga, gb;
  std::vector<std::string> names;
  a.visit([&](nn::Param& p) {
    ga.push_back(p.grad.clone());
    names.push_back(p.name);
  });
  b.visit([&](nn::Param& p) { gb.push_back(p.grad.clone()); });
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    const double scale = std::max(1.0, l2_norm(ga[i]));
    EXPECT_LT(max_abs_diff(ga[i], gb[i]) / scale, 2e-3) << names[i] << " tol " << tol;
  }
}

// ---- Ulysses ---------------------------------------------------------------

TEST_P(BaselineParam, UlyssesForwardMatchesReference) {
  const Case c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng wrng(100);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(101);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(c.world) * 6, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor ref = block.forward_only(x);

  FpdtEnv env(c.world, parallel::strategy_config(Strategy::kUlysses, FpdtConfig{}));
  auto exec = parallel::executor_factory(Strategy::kUlysses)(block, 0, env);
  Tensor got = contiguous_unshard(exec->forward(contiguous_shard(x, c.world)));
  EXPECT_LT(max_abs_diff(got, ref), 2e-4);
}

TEST_P(BaselineParam, UlyssesBackwardMatchesReference) {
  const Case c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng w1(102), w2(102);
  nn::TransformerBlock ref_block("b", cfg, w1);
  nn::TransformerBlock ul_block("b", cfg, w2);
  Rng xrng(103);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(c.world) * 6, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor dz = Tensor::randn(x.shape(), xrng, 0.0, 0.5);

  Tensor ref_dx = ref_block.backward_with_recompute(dz, x);
  FpdtEnv env(c.world, parallel::strategy_config(Strategy::kUlysses, FpdtConfig{}));
  auto exec = parallel::executor_factory(Strategy::kUlysses)(ul_block, 0, env);
  Tensor got_dx = contiguous_unshard(
      exec->backward(contiguous_shard(dz, c.world), contiguous_shard(x, c.world)));
  EXPECT_LT(max_abs_diff(got_dx, ref_dx), 5e-4);
  expect_weight_grads_match(ref_block, ul_block, 2e-3);
}

// ---- Megatron-SP -------------------------------------------------------------

TEST_P(BaselineParam, MegatronSpForwardMatchesReference) {
  const Case c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng wrng(110);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(111);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(c.world) * 6, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor ref = block.forward_only(x);

  FpdtEnv env(c.world, FpdtConfig{});
  MegatronSpBlockExecutor exec(block, env);
  Tensor got = contiguous_unshard(exec.forward(contiguous_shard(x, c.world)));
  EXPECT_LT(max_abs_diff(got, ref), 2e-4);
}

TEST_P(BaselineParam, MegatronSpBackwardMatchesReference) {
  const Case c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng w1(112), w2(112);
  nn::TransformerBlock ref_block("b", cfg, w1);
  nn::TransformerBlock sp_block("b", cfg, w2);
  Rng xrng(113);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(c.world) * 6, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor dz = Tensor::randn(x.shape(), xrng, 0.0, 0.5);

  Tensor ref_dx = ref_block.backward_with_recompute(dz, x);
  FpdtEnv env(c.world, FpdtConfig{});
  MegatronSpBlockExecutor exec(sp_block, env);
  Tensor got_dx = contiguous_unshard(
      exec.backward(contiguous_shard(dz, c.world), contiguous_shard(x, c.world)));
  EXPECT_LT(max_abs_diff(got_dx, ref_dx), 5e-4);
  expect_weight_grads_match(ref_block, sp_block, 2e-3);
}

// ---- Ring Attention ----------------------------------------------------------

TEST_P(BaselineParam, RingForwardMatchesReference) {
  const Case c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng wrng(120);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(121);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(c.world) * 6, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor ref = block.forward_only(x);

  FpdtEnv env(c.world, FpdtConfig{});
  RingAttentionBlockExecutor exec(block, env);
  Tensor got = contiguous_unshard(exec.forward(contiguous_shard(x, c.world)));
  EXPECT_LT(max_abs_diff(got, ref), 2e-4);
}

TEST_P(BaselineParam, RingBackwardMatchesReference) {
  const Case c = GetParam();
  nn::ModelConfig cfg = case_config(c);
  Rng w1(122), w2(122);
  nn::TransformerBlock ref_block("b", cfg, w1);
  nn::TransformerBlock ring_block("b", cfg, w2);
  Rng xrng(123);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(c.world) * 6, cfg.d_model}, xrng, 0.0, 0.5);
  Tensor dz = Tensor::randn(x.shape(), xrng, 0.0, 0.5);

  Tensor ref_dx = ref_block.backward_with_recompute(dz, x);
  FpdtEnv env(c.world, FpdtConfig{});
  RingAttentionBlockExecutor exec(ring_block, env);
  Tensor got_dx = contiguous_unshard(
      exec.backward(contiguous_shard(dz, c.world), contiguous_shard(x, c.world)));
  EXPECT_LT(max_abs_diff(got_dx, ref_dx), 5e-4);
  expect_weight_grads_match(ref_block, ring_block, 2e-3);
}

TEST(RingAttentionTest, CausalLoadImbalance) {
  // Rank r performs r+1 useful KV-block visits: the imbalance FPDT avoids.
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  Rng wrng(130);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(131);
  const int P = 4;
  Tensor x = Tensor::randn({P * 4, cfg.d_model}, xrng);
  FpdtEnv env(P, FpdtConfig{});
  RingAttentionBlockExecutor exec(block, env);
  exec.forward(contiguous_shard(x, P));
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(exec.useful_steps()[static_cast<std::size_t>(r)], r + 1);
  }
}

TEST(MegatronSpTest, IndivisibleHeadsRejected) {
  nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);  // 4 heads
  Rng wrng(132);
  nn::TransformerBlock block("b", cfg, wrng);
  FpdtEnv env(3, FpdtConfig{});
  EXPECT_THROW(MegatronSpBlockExecutor(block, env), FpdtError);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineParam,
                         ::testing::Values(Case{1, false}, Case{2, false}, Case{4, false},
                                           Case{2, true}, Case{4, true}));

}  // namespace
}  // namespace fpdt
