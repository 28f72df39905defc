#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/ffn.h"
#include "nn/linear.h"
#include "nn/lm_head.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "nn/norm.h"
#include "nn/rope.h"
#include "nn/transformer_block.h"
#include "runtime/device.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

using namespace fpdt::nn;
using fpdt::testing::expect_grad_matches;

double weighted_sum(const Tensor& t, const Tensor& weights) {
  double s = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    s += static_cast<double>(t.data()[i]) * static_cast<double>(weights.data()[i]);
  }
  return s;
}

TEST(ActivationTest, GeluGradFiniteDiff) {
  for (float x : {-3.0f, -0.5f, 0.0f, 0.7f, 2.5f}) {
    const float eps = 1e-3f;
    const float fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps);
    EXPECT_NEAR(gelu_grad(x), fd, 1e-3) << "x=" << x;
  }
}

TEST(ActivationTest, SiluGradFiniteDiff) {
  for (float x : {-4.0f, -1.0f, 0.0f, 1.3f, 3.0f}) {
    const float eps = 1e-3f;
    const float fd = (silu(x + eps) - silu(x - eps)) / (2 * eps);
    EXPECT_NEAR(silu_grad(x), fd, 1e-3) << "x=" << x;
  }
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(1);
  Linear lin("l", 3, 2, true, rng);
  Tensor x = Tensor::from_values({1, 3}, {1, 2, 3});
  Tensor y = lin.forward(x);
  const Tensor& w = lin.weight().value;
  float expect0 = w.at({0, 0}) * 1 + w.at({0, 1}) * 2 + w.at({0, 2}) * 3 + lin.bias().value.at({0});
  EXPECT_NEAR(y.at({0, 0}), expect0, 1e-5);
}

TEST(LinearTest, BackwardFiniteDiff) {
  Rng rng(2);
  Linear lin("l", 5, 4, true, rng);
  Tensor x = Tensor::randn({3, 5}, rng);
  Tensor r = Tensor::randn({3, 4}, rng);
  auto loss = [&] { return weighted_sum(lin.forward(x), r); };
  Tensor dx = lin.backward(r, x);
  Rng probe(3);
  expect_grad_matches(x, dx, loss, 10, probe);
  expect_grad_matches(lin.weight().value, lin.weight().grad, loss, 10, probe);
  expect_grad_matches(lin.bias().value, lin.bias().grad, loss, 4, probe);
}

TEST(LinearTest, BackwardAccumulates) {
  Rng rng(4);
  Linear lin("l", 3, 3, false, rng);
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor dy = Tensor::randn({2, 3}, rng);
  lin.backward(dy, x);
  Tensor after_one = lin.weight().grad.clone();
  lin.backward(dy, x);
  Tensor expected = mul_scalar(after_one, 2.0f);
  EXPECT_LT(max_abs_diff(lin.weight().grad, expected), 1e-5);
}

TEST(NormTest, LayerNormForwardNormalises) {
  Rng rng(5);
  LayerNorm ln("ln", 16);
  Tensor x = Tensor::randn({4, 16}, rng, 3.0, 2.0);
  NormStats st;
  Tensor y = ln.forward(x, st);
  // With unit gamma / zero beta, each row has ~0 mean, ~1 var.
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (std::int64_t j = 0; j < 16; ++j) mean += y.at({r, j});
    mean /= 16;
    for (std::int64_t j = 0; j < 16; ++j) var += std::pow(y.at({r, j}) - mean, 2);
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(NormTest, LayerNormBackwardFiniteDiff) {
  Rng rng(6);
  LayerNorm ln("ln", 8);
  Tensor x = Tensor::randn({3, 8}, rng);
  Tensor r = Tensor::randn({3, 8}, rng);
  auto loss = [&] {
    NormStats st;
    return weighted_sum(ln.forward(x, st), r);
  };
  NormStats st;
  ln.forward(x, st);
  Tensor dx = ln.backward(r, x, st);
  Rng probe(7);
  expect_grad_matches(x, dx, loss, 10, probe);
}

TEST(NormTest, RmsNormBackwardFiniteDiff) {
  Rng rng(8);
  RmsNorm rn("rn", 8);
  Tensor x = Tensor::randn({3, 8}, rng);
  Tensor r = Tensor::randn({3, 8}, rng);
  auto loss = [&] {
    NormStats st;
    return weighted_sum(rn.forward(x, st), r);
  };
  NormStats st;
  rn.forward(x, st);
  Tensor dx = rn.backward(r, x, st);
  Rng probe(9);
  expect_grad_matches(x, dx, loss, 10, probe);
}

TEST(RopeTest, PreservesNorm) {
  Rng rng(10);
  Tensor x = Tensor::randn({6, 2, 8}, rng);
  const double before = l2_norm(x);
  rope_apply_(x, 100, 10000.0);
  EXPECT_NEAR(l2_norm(x), before, 1e-4);
}

TEST(RopeTest, BackwardIsInverse) {
  Rng rng(11);
  Tensor x = Tensor::randn({4, 2, 8}, rng);
  Tensor orig = x.clone();
  rope_apply_(x, 37, 10000.0);
  rope_apply_backward_(x, 37, 10000.0);
  EXPECT_LT(max_abs_diff(x, orig), 1e-5);
}

TEST(RopeTest, RelativePositionProperty) {
  // <rope(q, m), rope(k, n)> must depend only on m - n.
  Rng rng(12);
  Tensor q = Tensor::randn({1, 1, 8}, rng);
  Tensor k = Tensor::randn({1, 1, 8}, rng);
  auto dot_at = [&](std::int64_t mq, std::int64_t nk) {
    Tensor qq = q.clone();
    Tensor kk = k.clone();
    rope_apply_(qq, mq, 10000.0);
    rope_apply_(kk, nk, 10000.0);
    double s = 0;
    for (std::int64_t i = 0; i < 8; ++i) s += qq.data()[i] * kk.data()[i];
    return s;
  };
  EXPECT_NEAR(dot_at(10, 3), dot_at(107, 100), 1e-4);
  EXPECT_NEAR(dot_at(5, 5), dot_at(999, 999), 1e-4);
}

// ---- Attention -------------------------------------------------------------

TEST(AttentionTest, ForwardMatchesDenseSoftmax) {
  Rng rng(13);
  const std::int64_t s = 7, h = 2, d = 4;
  Tensor q = Tensor::randn({s, h, d}, rng);
  Tensor k = Tensor::randn({s, h, d}, rng);
  Tensor v = Tensor::randn({s, h, d}, rng);
  AttentionOutput out = reference_attention_forward(q, k, v, /*causal=*/true);
  // Dense re-computation for head 1.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (std::int64_t i = 0; i < s; ++i) {
    Tensor logits({1, i + 1});
    for (std::int64_t j = 0; j <= i; ++j) {
      float acc = 0;
      for (std::int64_t p = 0; p < d; ++p) acc += q.at({i, 1, p}) * k.at({j, 1, p});
      logits.at({0, j}) = acc * scale;
    }
    softmax_rows_(logits);
    for (std::int64_t p = 0; p < d; ++p) {
      float expect = 0;
      for (std::int64_t j = 0; j <= i; ++j) expect += logits.at({0, j}) * v.at({j, 1, p});
      EXPECT_NEAR(out.out.at({i, 1, p}), expect, 1e-5) << "i=" << i << " p=" << p;
    }
  }
}

TEST(AttentionTest, CausalMaskRespected) {
  Rng rng(14);
  const std::int64_t s = 5, h = 1, d = 4;
  Tensor q = Tensor::randn({s, h, d}, rng);
  Tensor k = Tensor::randn({s, h, d}, rng);
  Tensor v = Tensor::randn({s, h, d}, rng);
  AttentionOutput a = reference_attention_forward(q, k, v, true);
  // Changing future keys/values must not change earlier outputs.
  Tensor k2 = k.clone();
  Tensor v2 = v.clone();
  for (std::int64_t p = 0; p < d; ++p) {
    k2.at({4, 0, p}) += 5.0f;
    v2.at({4, 0, p}) -= 3.0f;
  }
  AttentionOutput b = reference_attention_forward(q, k2, v2, true);
  EXPECT_LT(max_abs_diff(a.out.slice0(0, 4), b.out.slice0(0, 4)), 1e-6);
  EXPECT_GT(max_abs_diff(a.out.select0(4), b.out.select0(4)), 1e-3);
}

TEST(AttentionTest, BackwardFiniteDiff) {
  Rng rng(15);
  const std::int64_t s = 5, h = 2, d = 4;
  Tensor q = Tensor::randn({s, h, d}, rng);
  Tensor k = Tensor::randn({s, h, d}, rng);
  Tensor v = Tensor::randn({s, h, d}, rng);
  Tensor r = Tensor::randn({s, h, d}, rng);
  auto loss = [&] {
    return weighted_sum(reference_attention_forward(q, k, v, true).out, r);
  };
  AttentionOutput fwd = reference_attention_forward(q, k, v, true);
  AttentionGrads g = reference_attention_backward(r, q, k, v, fwd.out, true);
  Rng probe(16);
  expect_grad_matches(q, g.dq, loss, 12, probe);
  expect_grad_matches(k, g.dk, loss, 12, probe);
  expect_grad_matches(v, g.dv, loss, 12, probe);
}

TEST(AttentionTest, GqaBackwardFiniteDiff) {
  Rng rng(17);
  const std::int64_t s = 4, h = 4, hk = 2, d = 4;
  Tensor q = Tensor::randn({s, h, d}, rng);
  Tensor k = Tensor::randn({s, hk, d}, rng);
  Tensor v = Tensor::randn({s, hk, d}, rng);
  Tensor r = Tensor::randn({s, h, d}, rng);
  auto loss = [&] {
    return weighted_sum(reference_attention_forward(q, k, v, true).out, r);
  };
  AttentionOutput fwd = reference_attention_forward(q, k, v, true);
  AttentionGrads g = reference_attention_backward(r, q, k, v, fwd.out, true);
  Rng probe(18);
  expect_grad_matches(k, g.dk, loss, 10, probe);
  expect_grad_matches(v, g.dv, loss, 10, probe);
}

// Online attention chunked over (q, kv) pairs must equal the reference, for
// any chunking. This is the numeric heart of FPDT.
class OnlineAttnParam : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(OnlineAttnParam, MatchesReferenceForwardAndLse) {
  auto [s, chunks, h, hk] = GetParam();
  const std::int64_t d = 8;
  Rng rng(static_cast<std::uint64_t>(s * 1000 + chunks * 10 + h));
  Tensor q = Tensor::randn({s, h, d}, rng);
  Tensor k = Tensor::randn({s, hk, d}, rng);
  Tensor v = Tensor::randn({s, hk, d}, rng);
  AttentionOutput ref = reference_attention_forward(q, k, v, true);

  const std::int64_t c = s / chunks;
  ASSERT_EQ(s % chunks, 0);
  for (std::int64_t iq = 0; iq < chunks; ++iq) {
    OnlineAttnState st = OnlineAttnState::create(c, h, d);
    Tensor qc = q.slice0(iq * c, (iq + 1) * c);
    for (std::int64_t ik = 0; ik <= iq; ++ik) {
      online_attn_step(st, qc, k.slice0(ik * c, (ik + 1) * c), v.slice0(ik * c, (ik + 1) * c),
                       true, iq * c, ik * c);
    }
    AttentionOutput got = online_attn_finalize(st);
    EXPECT_LT(max_abs_diff(got.out, ref.out.slice0(iq * c, (iq + 1) * c).clone()), 1e-4)
        << "q chunk " << iq;
    EXPECT_LT(max_abs_diff(got.lse, ref.lse.slice0(iq * c, (iq + 1) * c).clone()), 1e-4);
  }
}

TEST_P(OnlineAttnParam, PairwiseBackwardSumsToReference) {
  auto [s, chunks, h, hk] = GetParam();
  const std::int64_t d = 8;
  Rng rng(static_cast<std::uint64_t>(s * 999 + chunks * 7 + h));
  Tensor q = Tensor::randn({s, h, d}, rng);
  Tensor k = Tensor::randn({s, hk, d}, rng);
  Tensor v = Tensor::randn({s, hk, d}, rng);
  Tensor dout = Tensor::randn({s, h, d}, rng);
  AttentionOutput ref = reference_attention_forward(q, k, v, true);
  AttentionGrads expect = reference_attention_backward(dout, q, k, v, ref.out, true);

  Tensor dq = Tensor::zeros(q.shape());
  Tensor dk = Tensor::zeros(k.shape());
  Tensor dv = Tensor::zeros(v.shape());
  const std::int64_t c = s / chunks;
  Tensor D = online_attn_backward_D(ref.out, dout);
  // FPDT backward order: outer loop over KV chunks, inner over Q chunks.
  for (std::int64_t ik = 0; ik < chunks; ++ik) {
    Tensor kc = k.slice0(ik * c, (ik + 1) * c).clone();
    Tensor vc = v.slice0(ik * c, (ik + 1) * c).clone();
    Tensor dkc = Tensor::zeros(kc.shape());
    Tensor dvc = Tensor::zeros(vc.shape());
    for (std::int64_t iq = ik; iq < chunks; ++iq) {
      Tensor qc = q.slice0(iq * c, (iq + 1) * c).clone();
      Tensor dqc = dq.slice0(iq * c, (iq + 1) * c);
      online_attn_backward_step(qc, kc, vc, dout.slice0(iq * c, (iq + 1) * c).clone(),
                                ref.lse.slice0(iq * c, (iq + 1) * c).clone(),
                                D.slice0(iq * c, (iq + 1) * c).clone(), true, iq * c, ik * c,
                                dqc, dkc, dvc);
    }
    Tensor dk_view = dk.slice0(ik * c, (ik + 1) * c);
    Tensor dv_view = dv.slice0(ik * c, (ik + 1) * c);
    add_(dk_view, dkc);
    add_(dv_view, dvc);
  }
  EXPECT_LT(max_abs_diff(dq, expect.dq), 1e-4);
  EXPECT_LT(max_abs_diff(dk, expect.dk), 1e-4);
  EXPECT_LT(max_abs_diff(dv, expect.dv), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnlineAttnParam,
                         ::testing::Values(std::tuple{8, 1, 2, 2}, std::tuple{8, 2, 2, 2},
                                           std::tuple{8, 4, 2, 2}, std::tuple{8, 8, 2, 2},
                                           std::tuple{12, 3, 2, 1}, std::tuple{16, 4, 4, 2},
                                           std::tuple{16, 2, 4, 4}));

TEST(OnlineAttnTest, FullyMaskedPairIsNoop) {
  Rng rng(20);
  const std::int64_t c = 4, h = 1, d = 4;
  OnlineAttnState st = OnlineAttnState::create(c, h, d);
  Tensor q = Tensor::randn({c, h, d}, rng);
  Tensor k = Tensor::randn({c, h, d}, rng);
  Tensor v = Tensor::randn({c, h, d}, rng);
  online_attn_step(st, q, k, v, true, /*q_pos0=*/0, /*k_pos0=*/100);  // all future
  for (float mv : st.l.span()) EXPECT_EQ(mv, 0.0f);
  // Now attend to the past; must finalize fine.
  online_attn_step(st, q, k, v, true, /*q_pos0=*/100, /*k_pos0=*/0);
  AttentionOutput out = online_attn_finalize(st);
  EXPECT_TRUE(std::isfinite(out.out.at({0, 0, 0})));
}

// ---- LM head, FFN, Embedding -----------------------------------------------

TEST(LmHeadTest, ChunkedEqualsMonolithic) {
  Rng rng(21);
  const std::int64_t s = 12, d = 8, vocab = 32;
  LmHead head_a("h", d, vocab, rng);
  Rng rng2(21);
  LmHead head_b("h", d, vocab, rng2);
  Tensor x = Tensor::randn({s, d}, rng);
  std::vector<std::int32_t> targets;
  Rng trng(22);
  for (std::int64_t i = 0; i < s; ++i) {
    targets.push_back(static_cast<std::int32_t>(trng.next_below(vocab)));
  }
  LossResult mono = head_a.forward_backward(x, targets, 1, s);
  LossResult chunked = head_b.forward_backward(x, targets, 5, s);
  EXPECT_NEAR(mono.mean_loss(), chunked.mean_loss(), 1e-6);
  EXPECT_LT(max_abs_diff(mono.dx, chunked.dx), 1e-6);
  EXPECT_LT(max_abs_diff(head_a.weight().grad, head_b.weight().grad), 1e-5);
}

TEST(LmHeadTest, GradFiniteDiff) {
  Rng rng(23);
  const std::int64_t s = 6, d = 4, vocab = 11;
  LmHead head("h", d, vocab, rng);
  Tensor x = Tensor::randn({s, d}, rng);
  std::vector<std::int32_t> targets = {1, 5, 0, 10, 3, 7};
  // The fused API accumulates weight grads as a side effect; that does not
  // affect the returned loss value, so it is safe inside the FD probe.
  auto loss = [&] { return head.forward_backward(x, targets, 1, s).mean_loss(); };
  LossResult res = head.forward_backward(x, targets, 1, s);
  Rng probe(24);
  expect_grad_matches(x, res.dx, loss, 10, probe);
}

TEST(LmHeadTest, SuggestedChunksFollowsPaperRule) {
  Rng rng(25);
  LmHead head("h", 64, 512, rng);
  EXPECT_EQ(head.suggested_chunks(), 512 / 64 * 2);
}

TEST(LmHeadTest, LogitsSpikeChargedToPool) {
  Rng rng(26);
  const std::int64_t s = 16, d = 8, vocab = 64;
  LmHead head("h", d, vocab, rng);
  Tensor x = Tensor::randn({s, d}, rng);
  std::vector<std::int32_t> targets(s, 0);
  runtime::MemoryPool mono_pool("p", -1);
  head.forward_backward(x, targets, 1, s, &mono_pool);
  runtime::MemoryPool chunk_pool("p", -1);
  head.forward_backward(x, targets, 8, s, &chunk_pool);
  EXPECT_EQ(mono_pool.peak(), s * vocab * 4);
  EXPECT_EQ(chunk_pool.peak(), s / 8 * vocab * 4);
}

struct FfnChunkCase {
  Arch arch;
  int chunks;
};

// Names the case in the ctest id (".../llama_c4"); without it gtest prints
// the enum class as raw bytes.
void PrintTo(const FfnChunkCase& c, std::ostream* os) {
  *os << (c.arch == Arch::kLlama ? "llama" : "gpt") << "_c" << c.chunks;
}

class FfnChunkParam : public ::testing::TestWithParam<FfnChunkCase> {};

TEST_P(FfnChunkParam, ChunkedEqualsMonolithic) {
  const auto [arch, chunks] = GetParam();
  Rng rng_a(30), rng_b(30);
  FeedForward ffn_a("f", arch, 8, 16, rng_a);
  FeedForward ffn_b("f", arch, 8, 16, rng_b);
  Rng rng(31);
  Tensor x = Tensor::randn({12, 8}, rng);
  Tensor dy = Tensor::randn({12, 8}, rng);
  Tensor y1 = ffn_a.forward(x, 1);
  Tensor y2 = ffn_b.forward(x, chunks);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-5);
  Tensor dx1 = ffn_a.backward(dy, x, 1);
  Tensor dx2 = ffn_b.backward(dy, x, chunks);
  EXPECT_LT(max_abs_diff(dx1, dx2), 1e-5);
  std::vector<Tensor> grads_a, grads_b;
  ffn_a.visit([&](Param& p) { grads_a.push_back(p.grad.clone()); });
  ffn_b.visit([&](Param& p) { grads_b.push_back(p.grad.clone()); });
  ASSERT_EQ(grads_a.size(), grads_b.size());
  for (std::size_t i = 0; i < grads_a.size(); ++i) {
    EXPECT_LT(max_abs_diff(grads_a[i], grads_b[i]), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FfnChunkParam,
                         ::testing::Values(FfnChunkCase{Arch::kGpt, 2}, FfnChunkCase{Arch::kGpt, 3},
                                           FfnChunkCase{Arch::kGpt, 12},
                                           FfnChunkCase{Arch::kLlama, 2},
                                           FfnChunkCase{Arch::kLlama, 4},
                                           FfnChunkCase{Arch::kLlama, 12}));

TEST(FfnTest, BackwardFiniteDiff) {
  Rng rng(32);
  FeedForward ffn("f", Arch::kLlama, 6, 10, rng);
  Tensor x = Tensor::randn({4, 6}, rng);
  Tensor r = Tensor::randn({4, 6}, rng);
  auto loss = [&] { return weighted_sum(ffn.forward(x), r); };
  Tensor dx = ffn.backward(r, x);
  Rng probe(33);
  expect_grad_matches(x, dx, loss, 10, probe);
}

TEST(FfnTest, ChunkingReducesPoolPeak) {
  Rng rng(34);
  FeedForward ffn("f", Arch::kGpt, 8, 32, rng);
  Tensor x = Tensor::randn({16, 8}, rng);
  runtime::MemoryPool mono("m", -1);
  ffn.forward(x, 1, &mono);
  runtime::MemoryPool chunked("c", -1);
  ffn.forward(x, 4, &chunked);
  EXPECT_EQ(mono.peak(), chunked.peak() * 4);
}

TEST(EmbeddingTest, ForwardBackward) {
  Rng rng(35);
  Embedding emb("e", 10, 4, rng);
  std::vector<std::int32_t> tokens = {3, 7, 3};
  Tensor h = emb.forward(tokens);
  EXPECT_EQ(h.dim(0), 3);
  // Rows for the same token are identical.
  EXPECT_LT(max_abs_diff(h.select0(0), h.select0(2)), 1e-7);
  Tensor dy = Tensor::full({3, 4}, 1.0f);
  emb.backward(dy, tokens);
  Tensor grad;
  emb.visit([&](Param& p) { grad = p.grad.clone(); });
  EXPECT_EQ(grad.at({3, 0}), 2.0f);  // token 3 appears twice
  EXPECT_EQ(grad.at({7, 0}), 1.0f);
  EXPECT_EQ(grad.at({0, 0}), 0.0f);
}

// ---- Block and model --------------------------------------------------------

TEST(BlockTest, BackwardWithRecomputeFiniteDiff) {
  ModelConfig cfg = tiny_gpt(16, 1, 2, 16);
  Rng rng(40);
  TransformerBlock blk("b", cfg, rng);
  Tensor x = Tensor::randn({6, 16}, rng, 0.0, 0.5);
  Tensor r = Tensor::randn({6, 16}, rng);
  auto loss = [&] { return weighted_sum(blk.forward_only(x), r); };
  Tensor dx = blk.backward_with_recompute(r, x);
  Rng probe(41);
  expect_grad_matches(x, dx, loss, 12, probe, 8e-3, 4e-2);
}

TEST(BlockTest, LlamaBackwardWithRecomputeFiniteDiff) {
  ModelConfig cfg = tiny_llama(16, 1, 2, 1, 16);
  Rng rng(42);
  TransformerBlock blk("b", cfg, rng);
  Tensor x = Tensor::randn({5, 16}, rng, 0.0, 0.5);
  Tensor r = Tensor::randn({5, 16}, rng);
  auto loss = [&] { return weighted_sum(blk.forward_only(x), r); };
  Tensor dx = blk.backward_with_recompute(r, x);
  Rng probe(43);
  expect_grad_matches(x, dx, loss, 12, probe, 8e-3, 4e-2);
}

TEST(BlockTest, FfnChunksDontChangeResult) {
  ModelConfig cfg = tiny_gpt(16, 1, 2, 16);
  Rng rng_a(44), rng_b(44);
  TransformerBlock a("b", cfg, rng_a);
  TransformerBlock b("b", cfg, rng_b);
  Rng rng(45);
  Tensor x = Tensor::randn({8, 16}, rng);
  EXPECT_LT(max_abs_diff(a.forward_only(x, 0, 1), b.forward_only(x, 0, 4)), 1e-5);
}

TEST(ModelConfigTest, ParamCounts) {
  // Published sizes should land within 10% of the nominal names.
  EXPECT_NEAR(static_cast<double>(gpt_2p7b().param_count()), 2.7e9, 0.3e9);
  EXPECT_NEAR(static_cast<double>(gpt_6p7b().param_count()), 6.7e9, 0.7e9);
  EXPECT_NEAR(static_cast<double>(gpt_13b().param_count()), 13e9, 1.3e9);
  EXPECT_NEAR(static_cast<double>(llama_8b().param_count()), 8e9, 0.8e9);
  EXPECT_NEAR(static_cast<double>(llama_70b().param_count()), 70e9, 7e9);
}

TEST(ModelConfigTest, FlopsGrowWithSequence) {
  ModelConfig cfg = gpt_2p7b();
  EXPECT_GT(cfg.train_flops_per_token(1 << 20), cfg.train_flops_per_token(1 << 12));
  EXPECT_THROW(model_by_name("nope"), FpdtError);
  EXPECT_EQ(model_by_name("llama-8b").n_kv_head, 8);
}

TEST(ModelTest, LossDecreasesUnderTraining) {
  ModelConfig cfg = tiny_gpt(32, 2, 2, 24);
  Model model(cfg, 123);
  Adam opt(3e-3);
  Rng rng(46);
  // Learnable synthetic pattern: token t+1 = (t*3+1) mod vocab.
  std::vector<std::int32_t> tokens;
  std::int32_t cur = 5;
  for (int i = 0; i < 33; ++i) {
    tokens.push_back(cur);
    cur = static_cast<std::int32_t>((cur * 3 + 1) % 24);
  }
  const double first = model.train_step_grads(tokens);
  opt.step([&](const ParamVisitor& fn) { model.visit_params(fn); });
  for (int step = 0; step < 30; ++step) {
    model.train_step_grads(tokens);
    opt.step([&](const ParamVisitor& fn) { model.visit_params(fn); });
  }
  const double last = model.eval_loss(tokens);
  EXPECT_LT(last, first * 0.5) << "first " << first << " last " << last;
}

TEST(ModelTest, SameSeedIdenticalSteps) {
  ModelConfig cfg = tiny_gpt(16, 2, 2, 16);
  Model a(cfg, 7), b(cfg, 7);
  std::vector<std::int32_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_DOUBLE_EQ(a.train_step_grads(tokens), b.train_step_grads(tokens));
}

TEST(ModelTest, LmChunksDontChangeLoss) {
  ModelConfig cfg = tiny_gpt(16, 1, 2, 32);
  Model a(cfg, 9), b(cfg, 9);
  std::vector<std::int32_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const double l1 = a.train_step_grads(tokens, 1);
  const double l2 = b.train_step_grads(tokens, 4);
  EXPECT_NEAR(l1, l2, 1e-9);
}

TEST(ModelTest, CopyParamsMakesModelsEqual) {
  ModelConfig cfg = tiny_gpt(16, 1, 2, 16);
  Model a(cfg, 1), b(cfg, 2);
  std::vector<std::int32_t> tokens = {1, 2, 3, 4, 5};
  EXPECT_NE(a.eval_loss(tokens), b.eval_loss(tokens));
  b.copy_params_from(a);
  EXPECT_DOUBLE_EQ(a.eval_loss(tokens), b.eval_loss(tokens));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimise ||w - target||² through the Param/visit machinery.
  Param w("w", Tensor::zeros({4}));
  Tensor target = Tensor::from_values({4}, {1, -2, 3, 0.5});
  Adam opt(0.05);
  for (int i = 0; i < 400; ++i) {
    Tensor diff = sub(w.value, target);
    w.grad.copy_from(mul_scalar(diff, 2.0f));
    opt.step([&](const ParamVisitor& fn) { fn(w); });
  }
  EXPECT_LT(max_abs_diff(w.value, target), 1e-2);
}

TEST(MemoryPoolTest, ChargeDischargeAndPeak) {
  runtime::MemoryPool pool("p", 100);
  {
    runtime::Allocation a(&pool, 60);
    EXPECT_EQ(pool.used(), 60);
    {
      runtime::Allocation b(&pool, 30);
      EXPECT_EQ(pool.used(), 90);
    }
    EXPECT_EQ(pool.used(), 60);
    EXPECT_THROW(runtime::Allocation(&pool, 50), OutOfMemoryError);
  }
  EXPECT_EQ(pool.used(), 0);
  EXPECT_EQ(pool.peak(), 90);
}

TEST(MemoryPoolTest, TimelineRecordsLabels) {
  runtime::MemoryPool pool("p", -1);
  pool.start_timeline();
  pool.set_phase_label("attn");
  runtime::Allocation a(&pool, 10);
  pool.set_phase_label("ffn");
  { runtime::Allocation b(&pool, 20); }
  ASSERT_GE(pool.timeline().size(), 3u);
  EXPECT_EQ(pool.timeline()[0].label, "attn");
  EXPECT_EQ(pool.timeline()[1].label, "ffn");
  EXPECT_EQ(pool.timeline()[1].used_bytes, 30);
}

TEST(DeviceTest, OffloadFetchMovesCharges) {
  runtime::Device dev(0, 1000);
  runtime::Host host;
  Rng rng(50);
  runtime::Buffer buf = dev.alloc(Tensor::randn({10, 10}, rng));
  EXPECT_EQ(dev.hbm().used(), 200);  // bf16 accounting
  Tensor original = buf.tensor().clone();
  runtime::Buffer on_host = runtime::offload_to_host(dev, host, std::move(buf));
  EXPECT_EQ(dev.hbm().used(), 0);
  EXPECT_EQ(host.pool().used(), 200);
  EXPECT_EQ(dev.transfers().d2h_bytes, 200);
  runtime::Buffer back = runtime::fetch_to_device(dev, std::move(on_host));
  EXPECT_EQ(dev.hbm().used(), 200);
  EXPECT_EQ(host.pool().used(), 0);
  EXPECT_LT(max_abs_diff(back.tensor(), original), 1e-7);
}

TEST(DeviceTest, FetchCopyLeavesHostResident) {
  runtime::Device dev(0, 1000);
  runtime::Host host;
  Rng rng(51);
  runtime::Buffer hb = host.alloc(Tensor::randn({5}, rng));
  runtime::Buffer db = runtime::fetch_copy_to_device(dev, hb);
  EXPECT_EQ(host.pool().used(), 10);
  EXPECT_EQ(dev.hbm().used(), 10);
  EXPECT_LT(max_abs_diff(db.tensor(), hb.tensor()), 1e-7);
}

TEST(DeviceTest, HbmOomThrows) {
  runtime::Device dev(0, 100);
  Rng rng(52);
  EXPECT_THROW(dev.alloc(Tensor::randn({100}, rng)), OutOfMemoryError);
}

}  // namespace
}  // namespace fpdt
