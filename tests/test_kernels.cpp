// The kernel-backend registry (src/kernels/): selection semantics, the
// three numerics bugfixes this layer landed with, bit-identity of the
// "scalar" reference against the seed loops, and the simd-vs-scalar
// differential property sweep (GQA groupings, odd head dims, tiny and
// tail shapes).
//
// ci/sanitize.sh runs this binary under FPDT_KERNEL_BACKEND=scalar and
// =simd, so active-backend tests exercise whichever backend the lane
// selected, while the explicit BackendScope tests always pin both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fpdt_env.h"
#include "kernels/backend.h"
#include "kernels/op_cost.h"
#include "nn/attention.h"
#include "obs/workmeter.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// ---- registry --------------------------------------------------------------

TEST(KernelRegistryTest, ScalarAndSimdRegistered) {
  const std::vector<std::string> names = kernels::available();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[0], "scalar");  // registration order: reference first
  EXPECT_NE(std::find(names.begin(), names.end(), "simd"), names.end());
}

TEST(KernelRegistryTest, UnknownBackendThrowsListingKnown) {
  try {
    kernels::backend("does-not-exist");
    FAIL() << "expected FpdtError";
  } catch (const FpdtError& e) {
    EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("simd"), std::string::npos);
  }
}

TEST(KernelRegistryTest, BackendScopeRestores) {
  const std::string before = kernels::active_name();
  {
    kernels::BackendScope scope("simd");
    EXPECT_EQ(kernels::active_name(), "simd");
    {
      kernels::BackendScope inner("scalar");
      EXPECT_EQ(kernels::active_name(), "scalar");
    }
    EXPECT_EQ(kernels::active_name(), "simd");
  }
  EXPECT_EQ(kernels::active_name(), before);
}

TEST(KernelRegistryTest, EmptyScopeIsNoOp) {
  const std::string before = kernels::active_name();
  {
    kernels::BackendScope scope("");
    EXPECT_EQ(kernels::active_name(), before);
  }
  EXPECT_EQ(kernels::active_name(), before);
}

TEST(KernelRegistryTest, FpdtEnvAppliesConfigBackend) {
  // FpdtConfig::kernel_backend selects the backend for the env's lifetime
  // (unless FPDT_KERNEL_BACKEND is set, which already decided the process
  // default — in that case the config defers to it by design).
  const std::string before = kernels::active_name();
  const bool env_var_set = std::getenv("FPDT_KERNEL_BACKEND") != nullptr;
  {
    core::FpdtConfig cfg;
    cfg.kernel_backend = "simd";
    core::FpdtEnv env(1, cfg);
    EXPECT_EQ(kernels::active_name(), env_var_set ? before : "simd");
  }
  EXPECT_EQ(kernels::active_name(), before);
}

TEST(KernelRegistryTest, CanonicalIncludesBackend) {
  core::FpdtConfig cfg;
  EXPECT_NE(cfg.canonical().find(";kb=scalar"), std::string::npos) << cfg.canonical();
  cfg.kernel_backend = "simd";
  EXPECT_NE(cfg.canonical().find(";kb=simd"), std::string::npos) << cfg.canonical();
}

// ---- bugfix 1: GEMM zero-times-Inf propagation ----------------------------

// The seed's rank-1 GEMM loops skipped A elements equal to 0.0f, silently
// dropping IEEE non-finite propagation: a 0 in A against an Inf in B must
// produce NaN, not 0.

// Independent triple-loop oracle, no short-circuits of any kind.
Tensor oracle_tn(const Tensor& a, const Tensor& b) {
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at({p, i}) * b.at({p, j});
      c.at({i, j}) = acc;
    }
  }
  return c;
}

TEST(GemmNonFiniteTest, MatmulTnPropagatesZeroTimesInf) {
  // A[1][0] == 0 meets B[1][1] == Inf: column 1 of C row 0 must be NaN.
  Tensor a = Tensor::from_values({2, 2}, {1.0f, 2.0f, 0.0f, 3.0f});  // [k=2, m=2]
  Tensor b = Tensor::from_values({2, 2}, {1.0f, 1.0f, 1.0f, kInf});  // [k=2, n=2]
  const Tensor c = matmul_tn(a, b);
  EXPECT_TRUE(std::isnan(c.at({0, 1}))) << "0*Inf dropped by the seed short-circuit";
  EXPECT_FLOAT_EQ(c.at({0, 0}), 1.0f);
  // Columns whose accumulation never meets the 0*Inf pair stay finite and
  // match the oracle exactly.
  const Tensor ref = oracle_tn(a, b);
  EXPECT_FLOAT_EQ(c.at({1, 0}), ref.at({1, 0}));
}

TEST(GemmNonFiniteTest, MatmulPropagatesZeroTimesInf) {
  // Same latent skip existed in the shared NN GEMM behind matmul().
  Tensor a = Tensor::from_values({2, 2}, {1.0f, 0.0f, 2.0f, 1.0f});
  Tensor b = Tensor::from_values({2, 2}, {1.0f, 1.0f, kInf, 1.0f});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at({0, 0})));  // 1*1 + 0*Inf
  EXPECT_FLOAT_EQ(c.at({0, 1}), 1.0f);
}

TEST(GemmNonFiniteTest, DifferentialAgainstOracleWithNonFiniteOperands) {
  // Inf/NaN-laced operands: every backend must agree with the triple-loop
  // oracle on *which* entries are NaN / Inf, and match the finite ones.
  Rng rng(99);
  Tensor a = testing::random_tensor({3, 4}, rng);  // [k=3, m=4]
  Tensor b = testing::random_tensor({3, 5}, rng);  // [k=3, n=5]
  a.at({1, 2}) = 0.0f;
  b.at({1, 3}) = kInf;
  b.at({2, 0}) = -kInf;
  a.at({0, 0}) = std::numeric_limits<float>::quiet_NaN();
  const Tensor ref = oracle_tn(a, b);
  for (const char* name : {"scalar", "simd"}) {
    kernels::BackendScope scope(name);
    const Tensor c = matmul_tn(a, b);
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t j = 0; j < 5; ++j) {
        const float got = c.at({i, j});
        const float want = ref.at({i, j});
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got)) << name << " at " << i << "," << j;
        } else if (std::isinf(want)) {
          EXPECT_EQ(got, want) << name << " at " << i << "," << j;
        } else {
          EXPECT_NEAR(got, want, 1e-4) << name << " at " << i << "," << j;
        }
      }
    }
  }
}

// ---- bugfix 2: fully causally-masked rows ---------------------------------

TEST(AttentionMaskingTest, FullyMaskedChunkYieldsIdentityElement) {
  // A KV chunk entirely in the query's causal future is legitimate under
  // chunked prefill. The seed hard-aborted; now: zero rows, lse = -inf.
  Rng rng(7);
  Tensor q = testing::random_tensor({2, 2, 4}, rng);
  Tensor k = testing::random_tensor({3, 2, 4}, rng);
  Tensor v = testing::random_tensor({3, 2, 4}, rng);
  // q positions 0..1, kv positions 100..102: all masked.
  const nn::AttentionOutput out = nn::reference_attention_forward(q, k, v, true, 0, 100);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t h = 0; h < 2; ++h) {
      EXPECT_EQ(out.lse.at({i, h}), -kInf);
      for (std::int64_t p = 0; p < 4; ++p) EXPECT_EQ(out.out.at({i, h, p}), 0.0f);
    }
  }
}

TEST(AttentionMaskingTest, ChunkedPrefillMatchesMonolithic) {
  // Fold KV in chunks where later chunks are fully masked for early query
  // rows; the accumulated online state must finalize to the monolithic
  // answer. Odd head dim (5) and a tail chunk (7 = 3 + 3 + 1) on purpose.
  Rng rng(21);
  const std::int64_t sq = 7, h = 4, hk = 2, d = 5;
  Tensor q = testing::random_tensor({sq, h, d}, rng);
  Tensor k = testing::random_tensor({sq, hk, d}, rng);
  Tensor v = testing::random_tensor({sq, hk, d}, rng);
  const nn::AttentionOutput mono = nn::reference_attention_forward(q, k, v, true, 0, 0);
  for (const char* name : {"scalar", "simd"}) {
    kernels::BackendScope scope(name);
    nn::OnlineAttnState st = nn::OnlineAttnState::create(sq, h, d);
    for (std::int64_t c0 : {std::int64_t{0}, std::int64_t{3}, std::int64_t{6}}) {
      const std::int64_t c1 = std::min<std::int64_t>(c0 + 3, sq);
      nn::online_attn_step(st, q, k.slice0(c0, c1), v.slice0(c0, c1), true, 0, c0);
    }
    const nn::AttentionOutput chunked = nn::online_attn_finalize(st);
    EXPECT_LT(max_abs_diff(chunked.out, mono.out), 1e-4) << name;
    EXPECT_LT(max_abs_diff(chunked.lse, mono.lse), 1e-4) << name;
  }
}

TEST(AttentionMaskingTest, StateWithOnlyMaskedStepsFinalizesToIdentity) {
  Rng rng(3);
  Tensor q = testing::random_tensor({2, 1, 4}, rng);
  Tensor k = testing::random_tensor({2, 1, 4}, rng);
  Tensor v = testing::random_tensor({2, 1, 4}, rng);
  nn::OnlineAttnState st = nn::OnlineAttnState::create(2, 1, 4);
  nn::online_attn_step(st, q, k, v, true, 0, 50);  // entirely future chunk
  const nn::AttentionOutput out = nn::online_attn_finalize(st);
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.lse.at({i, 0}), -kInf);
    for (std::int64_t p = 0; p < 4; ++p) EXPECT_EQ(out.out.at({i, 0, p}), 0.0f);
  }
}

// ---- bugfix 3: mask sentinel vs genuine -inf logit ------------------------

TEST(AttentionMaskingTest, GenuineNegInfLogitIsNotTreatedAsMasked) {
  // Overflowing q·k produces a *real* -inf logit. The seed compared scores
  // against the -inf mask sentinel, silently treating such a row as masked;
  // with masking tracked as an index bound, an all--inf row is 0/0 and must
  // propagate NaN instead of fabricating a uniform or zero distribution.
  const float big = 3e38f;
  Tensor q = Tensor::from_values({1, 1, 1}, {big});
  Tensor k = Tensor::from_values({2, 1, 1}, {-big, -big});  // both dots overflow to -inf
  Tensor v = Tensor::from_values({2, 1, 1}, {1.0f, 2.0f});
  const nn::AttentionOutput out = nn::reference_attention_forward(q, k, v, false, 0, 0);
  EXPECT_TRUE(std::isnan(out.out.at({0, 0, 0})));
  EXPECT_TRUE(std::isnan(out.lse.at({0, 0})));
}

TEST(AttentionMaskingTest, GenuineNegInfLogitPropagatesThroughOnlinePath) {
  const float big = 3e38f;
  Tensor q = Tensor::from_values({1, 1, 1}, {big});
  Tensor k = Tensor::from_values({1, 1, 1}, {-big});
  Tensor v = Tensor::from_values({1, 1, 1}, {1.0f});
  nn::OnlineAttnState st = nn::OnlineAttnState::create(1, 1, 1);
  nn::online_attn_step(st, q, k, v, false, 0, 0);
  const nn::AttentionOutput out = nn::online_attn_finalize(st);
  EXPECT_TRUE(std::isnan(out.out.at({0, 0, 0})));
}

TEST(AttentionMaskingTest, FiniteRowsUnaffectedByNegInfNeighbor) {
  // One genuine -inf logit among finite ones carries zero weight — exactly
  // what the seed's sentinel skip computed — so mixed rows stay identical.
  const float big = 3e38f;
  Rng rng(11);
  Tensor q = Tensor::from_values({1, 1, 2}, {1.0f, big});
  Tensor k = Tensor::from_values({3, 1, 2}, {0.5f, 0.0f, -0.25f, 0.0f, 0.0f, -big});
  Tensor v = testing::random_tensor({3, 1, 2}, rng);
  const nn::AttentionOutput out = nn::reference_attention_forward(q, k, v, false, 0, 0);
  // Key 2's logit is -inf; the row must equal attention over keys 0..1 only.
  const nn::AttentionOutput ref =
      nn::reference_attention_forward(q, k.slice0(0, 2), v.slice0(0, 2), false, 0, 0);
  EXPECT_LT(max_abs_diff(out.out, ref.out), 1e-6);
  EXPECT_LT(max_abs_diff(out.lse, ref.lse), 1e-6);
}

// ---- scalar bit-identity with the seed loops ------------------------------

// The seed's gemm loops, verbatim (including the av == 0.0f short-circuit):
// on data with no exact zeros the backend must reproduce them bit-for-bit.
Tensor seed_gemm_nn(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  float* c = out.data();
  const float* ad = a.data();
  const float* bd = b.data();
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = ad + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      if (av == 0.0f) continue;
      const float* b_row = bd + p * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
  return out;
}

TEST(ScalarBitIdentityTest, GemmNnMatchesSeedBitwise) {
  Rng rng(5);
  const Tensor a = testing::random_tensor({13, 37}, rng);
  const Tensor b = testing::random_tensor({37, 19}, rng);
  kernels::BackendScope scope("scalar");
  const Tensor got = matmul(a, b);
  const Tensor want = seed_gemm_nn(a, b);
  EXPECT_EQ(max_abs_diff(got, want), 0.0) << "scalar backend drifted from the seed loop";
}

TEST(ScalarBitIdentityTest, MatmulNtMatchesDotOracleBitwise) {
  // The seed matmul_nt is a plain dot-product loop; same accumulation order
  // must survive the refactor exactly.
  Rng rng(6);
  const Tensor a = testing::random_tensor({9, 21}, rng);
  const Tensor b = testing::random_tensor({11, 21}, rng);
  kernels::BackendScope scope("scalar");
  const Tensor got = matmul_nt(a, b);
  for (std::int64_t i = 0; i < 9; ++i) {
    for (std::int64_t j = 0; j < 11; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < 21; ++p) acc += a.at({i, p}) * b.at({j, p});
      EXPECT_EQ(got.at({i, j}), acc);
    }
  }
}

TEST(ScalarBitIdentityTest, SoftmaxMatchesSeedBitwise) {
  Rng rng(8);
  Tensor x = testing::random_tensor({6, 33}, rng);
  Tensor seed = x.clone();
  // Seed loop, verbatim.
  for (std::int64_t r = 0; r < 6; ++r) {
    float* row = seed.data() + r * 33;
    float m = row[0];
    for (std::int64_t j = 1; j < 33; ++j) m = std::max(m, row[j]);
    float z = 0.0f;
    for (std::int64_t j = 0; j < 33; ++j) {
      row[j] = std::exp(row[j] - m);
      z += row[j];
    }
    const float inv = 1.0f / z;
    for (std::int64_t j = 0; j < 33; ++j) row[j] *= inv;
  }
  kernels::BackendScope scope("scalar");
  softmax_rows_(x);
  EXPECT_EQ(max_abs_diff(x, seed), 0.0);
}

// ---- simd vs scalar differential sweep ------------------------------------

struct AttnShape {
  std::int64_t sq, sk, h, hk, d;
};

// Tolerance scaled by the result's magnitude: vector accumulation
// reassociates float sums, so simd is close to scalar, not equal to it.
void expect_close(const Tensor& scalar, const Tensor& simd, double rel, const char* what) {
  double scale = 1.0;
  for (std::int64_t i = 0; i < scalar.numel(); ++i) {
    scale = std::max(scale, static_cast<double>(std::abs(scalar.data()[i])));
  }
  EXPECT_LT(max_abs_diff(scalar, simd), rel * scale) << what;
}

TEST(SimdDifferentialTest, GemmSweep) {
  // Tiny shapes (below every block size), odd primes (tails everywhere),
  // and sizes straddling the 4x16 micro-kernel and the k-block boundary.
  const std::vector<std::vector<std::int64_t>> shapes = {
      {1, 1, 1}, {2, 3, 5}, {4, 16, 16}, {5, 17, 33}, {13, 7, 19},
      {32, 64, 48}, {3, 515, 19},  // k > the 512 k-block: exercises blocking
  };
  Rng rng(42);
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = testing::random_tensor({m, k}, rng);
    const Tensor b = testing::random_tensor({k, n}, rng);
    const Tensor bt = testing::random_tensor({n, k}, rng);
    const Tensor at = testing::random_tensor({k, m}, rng);
    Tensor r_nn, r_nt, r_tn;
    {
      kernels::BackendScope scope("scalar");
      r_nn = matmul(a, b);
      r_nt = matmul_nt(a, bt);
      r_tn = matmul_tn(at, b);
    }
    kernels::BackendScope scope("simd");
    expect_close(r_nn, matmul(a, b), 1e-4, "nn");
    expect_close(r_nt, matmul_nt(a, bt), 1e-4, "nt");
    expect_close(r_tn, matmul_tn(at, b), 1e-4, "tn");
  }
}

TEST(SimdDifferentialTest, AttentionSweep) {
  // GQA groupings (group = 1, 2, 4, 8), odd head dims (d not a multiple of
  // the 8-lane width), tiny shapes, and sk tail chunks.
  const std::vector<AttnShape> shapes = {
      {1, 1, 1, 1, 1},   {4, 4, 8, 8, 16},  {4, 4, 8, 4, 16}, {4, 4, 8, 2, 7},
      {4, 4, 8, 1, 13},  {7, 17, 4, 2, 5},  {3, 33, 2, 1, 9}, {16, 16, 2, 2, 64},
  };
  Rng rng(77);
  for (const AttnShape& s : shapes) {
    const Tensor q = testing::random_tensor({s.sq, s.h, s.d}, rng);
    const Tensor k = testing::random_tensor({s.sk, s.hk, s.d}, rng);
    const Tensor v = testing::random_tensor({s.sk, s.hk, s.d}, rng);
    const Tensor dout = testing::random_tensor({s.sq, s.h, s.d}, rng);
    nn::AttentionOutput fwd_scalar;
    nn::AttentionGrads bwd_scalar;
    {
      kernels::BackendScope scope("scalar");
      fwd_scalar = nn::reference_attention_forward(q, k, v, true, 3, 0);
      bwd_scalar =
          nn::reference_attention_backward(dout, q, k, v, fwd_scalar.out, true, 3, 0);
    }
    kernels::BackendScope scope("simd");
    const nn::AttentionOutput fwd = nn::reference_attention_forward(q, k, v, true, 3, 0);
    expect_close(fwd_scalar.out, fwd.out, 1e-4, "attn out");
    expect_close(fwd_scalar.lse, fwd.lse, 1e-4, "attn lse");
    const nn::AttentionGrads bwd =
        nn::reference_attention_backward(dout, q, k, v, fwd.out, true, 3, 0);
    expect_close(bwd_scalar.dq, bwd.dq, 5e-4, "dq");
    expect_close(bwd_scalar.dk, bwd.dk, 5e-4, "dk");
    expect_close(bwd_scalar.dv, bwd.dv, 5e-4, "dv");
  }
}

TEST(SimdDifferentialTest, OnlineChunkedTailChunks) {
  // Chunked online softmax with a ragged tail (sk = 3 + 3 + 1), GQA, odd d.
  Rng rng(17);
  const std::int64_t sq = 5, sk = 7, h = 4, hk = 2, d = 11;
  const Tensor q = testing::random_tensor({sq, h, d}, rng);
  const Tensor k = testing::random_tensor({sk, hk, d}, rng);
  const Tensor v = testing::random_tensor({sk, hk, d}, rng);
  nn::AttentionOutput scalar_out;
  {
    kernels::BackendScope scope("scalar");
    nn::OnlineAttnState st = nn::OnlineAttnState::create(sq, h, d);
    for (std::int64_t c0 = 0; c0 < sk; c0 += 3) {
      const std::int64_t c1 = std::min<std::int64_t>(c0 + 3, sk);
      nn::online_attn_step(st, q, k.slice0(c0, c1), v.slice0(c0, c1), true, 1, c0);
    }
    scalar_out = nn::online_attn_finalize(st);
  }
  kernels::BackendScope scope("simd");
  nn::OnlineAttnState st = nn::OnlineAttnState::create(sq, h, d);
  for (std::int64_t c0 = 0; c0 < sk; c0 += 3) {
    const std::int64_t c1 = std::min<std::int64_t>(c0 + 3, sk);
    nn::online_attn_step(st, q, k.slice0(c0, c1), v.slice0(c0, c1), true, 1, c0);
  }
  const nn::AttentionOutput simd_out = nn::online_attn_finalize(st);
  expect_close(scalar_out.out, simd_out.out, 1e-4, "chunked out");
  expect_close(scalar_out.lse, simd_out.lse, 1e-4, "chunked lse");
}

TEST(SimdDifferentialTest, SoftmaxRows) {
  Rng rng(31);
  for (std::int64_t cols : {std::int64_t{1}, std::int64_t{7}, std::int64_t{8},
                            std::int64_t{9}, std::int64_t{65}}) {
    Tensor a = testing::random_tensor({4, cols}, rng);
    Tensor b = a.clone();
    {
      kernels::BackendScope scope("scalar");
      softmax_rows_(a);
    }
    kernels::BackendScope scope("simd");
    softmax_rows_(b);
    expect_close(a, b, 1e-5, "softmax");
  }
}

TEST(SimdDifferentialTest, ActivationAndNormSweep) {
  // The pointwise activations and both norms run their transcendentals
  // through the simd backend's polynomial vector exp; pin them to the
  // scalar reference across vector-tail sizes and the saturating ends
  // (x = ±30 drives tanh/sigmoid to exactly ±1 / {0,1} on both paths).
  const kernels::Backend& ref = kernels::backend("scalar");
  const kernels::Backend& simd = kernels::backend("simd");
  Rng rng(77);
  const std::int64_t rows = 3;
  for (std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{8}, std::int64_t{9},
                         std::int64_t{33}, std::int64_t{67}}) {
    Tensor x = testing::random_tensor({rows, n}, rng, 4.0);
    x.data()[0] = 30.0f;
    if (x.numel() > 1) x.data()[1] = -30.0f;
    const Tensor gamma = testing::random_tensor({n}, rng);
    const Tensor beta = testing::random_tensor({n}, rng);
    const Tensor dy = testing::random_tensor({rows, n}, rng);
    const std::int64_t numel = rows * n;

    Tensor y_ref = Tensor::full({rows, n}, 0.0f);
    Tensor y_simd = Tensor::full({rows, n}, 0.0f);
    ref.gelu_forward(x.data(), y_ref.data(), numel);
    simd.gelu_forward(x.data(), y_simd.data(), numel);
    expect_close(y_ref, y_simd, 1e-5, "gelu fwd");
    Tensor dx_ref = dy.clone();
    Tensor dx_simd = dy.clone();
    ref.gelu_backward_mul(x.data(), dx_ref.data(), numel);
    simd.gelu_backward_mul(x.data(), dx_simd.data(), numel);
    expect_close(dx_ref, dx_simd, 1e-5, "gelu bwd");

    ref.silu_forward(x.data(), y_ref.data(), numel);
    simd.silu_forward(x.data(), y_simd.data(), numel);
    expect_close(y_ref, y_simd, 1e-5, "silu fwd");
    dx_ref = dy.clone();
    dx_simd = dy.clone();
    ref.silu_backward_mul(x.data(), dx_ref.data(), numel);
    simd.silu_backward_mul(x.data(), dx_simd.data(), numel);
    expect_close(dx_ref, dx_simd, 1e-5, "silu bwd");

    // LayerNorm: each backend saves and consumes its own mean/rstd, the way
    // the nn layer uses it.
    Tensor mean_ref = Tensor::full({rows}, 0.0f), rstd_ref = Tensor::full({rows}, 0.0f);
    Tensor mean_simd = Tensor::full({rows}, 0.0f), rstd_simd = Tensor::full({rows}, 0.0f);
    ref.layernorm_forward(x.data(), gamma.data(), beta.data(), y_ref.data(), mean_ref.data(),
                          rstd_ref.data(), rows, n, 1e-5f);
    simd.layernorm_forward(x.data(), gamma.data(), beta.data(), y_simd.data(), mean_simd.data(),
                           rstd_simd.data(), rows, n, 1e-5f);
    expect_close(mean_ref, mean_simd, 1e-4, "ln mean");
    expect_close(rstd_ref, rstd_simd, 1e-4, "ln rstd");
    expect_close(y_ref, y_simd, 1e-4, "ln fwd");
    dx_ref = Tensor::full({rows, n}, 0.0f);
    dx_simd = Tensor::full({rows, n}, 0.0f);
    Tensor dg_ref = Tensor::full({n}, 0.0f), db_ref = Tensor::full({n}, 0.0f);
    Tensor dg_simd = Tensor::full({n}, 0.0f), db_simd = Tensor::full({n}, 0.0f);
    ref.layernorm_backward(x.data(), dy.data(), gamma.data(), mean_ref.data(), rstd_ref.data(),
                           dx_ref.data(), dg_ref.data(), db_ref.data(), rows, n);
    simd.layernorm_backward(x.data(), dy.data(), gamma.data(), mean_simd.data(),
                            rstd_simd.data(), dx_simd.data(), dg_simd.data(), db_simd.data(),
                            rows, n);
    expect_close(dx_ref, dx_simd, 5e-4, "ln dx");
    expect_close(dg_ref, dg_simd, 5e-4, "ln dgamma");
    expect_close(db_ref, db_simd, 5e-4, "ln dbeta");

    ref.rmsnorm_forward(x.data(), gamma.data(), y_ref.data(), rstd_ref.data(), rows, n, 1e-5f);
    simd.rmsnorm_forward(x.data(), gamma.data(), y_simd.data(), rstd_simd.data(), rows, n, 1e-5f);
    expect_close(rstd_ref, rstd_simd, 1e-4, "rms rstd");
    expect_close(y_ref, y_simd, 1e-4, "rms fwd");
    dx_ref = Tensor::full({rows, n}, 0.0f);
    dx_simd = Tensor::full({rows, n}, 0.0f);
    dg_ref = Tensor::full({n}, 0.0f);
    dg_simd = Tensor::full({n}, 0.0f);
    ref.rmsnorm_backward(x.data(), dy.data(), gamma.data(), rstd_ref.data(), dx_ref.data(),
                         dg_ref.data(), rows, n);
    simd.rmsnorm_backward(x.data(), dy.data(), gamma.data(), rstd_simd.data(), dx_simd.data(),
                          dg_simd.data(), rows, n);
    expect_close(dx_ref, dx_simd, 5e-4, "rms dx");
    expect_close(dg_ref, dg_simd, 5e-4, "rms dgamma");
  }
}

TEST(SimdDifferentialTest, ForkedRowsMatchSerial) {
  // The simd backend forks big GEMM / attention calls across the thread
  // pool; a row partition must not change any row's result. Forked vs
  // serial simd is bitwise equal (each row's arithmetic is identical).
  Rng rng(55);
  const Tensor a = testing::random_tensor({256, 64}, rng);
  const Tensor b = testing::random_tensor({64, 48}, rng);
  const Tensor q = testing::random_tensor({256, 2, 16}, rng);
  const Tensor k = testing::random_tensor({64, 2, 16}, rng);
  const Tensor v = testing::random_tensor({64, 2, 16}, rng);
  kernels::BackendScope scope("simd");
  const int saved = parallel_workers();
  set_parallel_workers(1);
  const Tensor serial_mm = matmul(a, b);
  const nn::AttentionOutput serial_attn = nn::reference_attention_forward(q, k, v, false, 0, 0);
  set_parallel_workers(4);
  const Tensor forked_mm = matmul(a, b);
  const nn::AttentionOutput forked_attn = nn::reference_attention_forward(q, k, v, false, 0, 0);
  set_parallel_workers(saved);
  EXPECT_EQ(max_abs_diff(serial_mm, forked_mm), 0.0);
  EXPECT_EQ(max_abs_diff(serial_attn.out, forked_attn.out), 0.0);
  EXPECT_EQ(max_abs_diff(serial_attn.lse, forked_attn.lse), 0.0);
}

// ---- simd attention: golden digests and row-split invariance ---------------
//
// The AVX2 attention kernels work on tiles of query rows, but every row's
// arithmetic is fixed: the same 8-key blocks counted from key 0, the same
// reduction trees, the same FMA order. These tests pin that contract
// bitwise. The digests were captured from the single-row kernels the tiles
// replaced; the row-split test checks that tile edges never show in a row.

// Uniform floats in [-2, 2) from splitmix64, so the inputs do not depend on
// the platform's libm the way Rng::next_normal does.
std::vector<float> hash_floats(std::int64_t n, std::uint64_t seed) {
  std::vector<float> out(static_cast<std::size_t>(n));
  std::uint64_t s = seed * 0x2545F4914F6CDD1Dull;
  for (float& x : out) {
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    x = static_cast<float>(static_cast<std::int64_t>(z >> 40) - (std::int64_t{1} << 23)) /
        static_cast<float>(std::int64_t{1} << 22);
  }
  return out;
}

// FNV-1a over the float bit patterns. NaNs hash as one canonical pattern:
// the contract covers where NaN appears, not which payload an FMA forwards.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const std::vector<float>& xs) {
    for (const float x : xs) {
      std::uint32_t bits = 0x7FC00000u;
      if (!std::isnan(x)) std::memcpy(&bits, &x, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFu;
        h *= 1099511628211ull;
      }
    }
  }
};

struct AttnMask {
  bool causal;
  std::int64_t q_pos0, k_pos0;
};

// Non-causal; the diagonal chunk; a chunk every row sees past its end
// (partially masked blocks); and leading rows that see no key at all.
constexpr AttnMask kGoldenMasks[] = {{false, 0, 0}, {true, 0, 0}, {true, 13, 0}, {true, 0, 3}};

struct AttnInputs {
  kernels::AttnDims dm;
  std::vector<float> q, k, v, k2, v2, dout;
};

// Inputs for one golden case. Key 0 (and key 5) of kv head 0 carry a -inf
// coordinate against a positive query coordinate, so every query of that
// group gets genuine -inf logits there (the causal diagonal's first row has
// only -inf logits, and 0/0 must give NaN). The last key of the last kv
// head and one query row of the last head carry NaN.
AttnInputs golden_inputs(const kernels::AttnDims& dm, std::uint64_t seed) {
  AttnInputs in;
  in.dm = dm;
  const std::int64_t nq = dm.sq * dm.h * dm.d, nk = dm.sk * dm.hk * dm.d;
  in.q = hash_floats(nq, 6 * seed);
  in.k = hash_floats(nk, 6 * seed + 1);
  in.v = hash_floats(nk, 6 * seed + 2);
  in.k2 = hash_floats(nk, 6 * seed + 3);
  in.v2 = hash_floats(nk, 6 * seed + 4);
  in.dout = hash_floats(nq, 6 * seed + 5);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t i = 0; i < dm.sq; ++i) {
    for (std::int64_t hd = 0; hd < dm.group; ++hd) {
      float& x = in.q[static_cast<std::size_t>((i * dm.h + hd) * dm.d)];
      x = std::abs(x) + 0.25f;
    }
  }
  for (const std::int64_t key : {std::int64_t{0}, std::int64_t{5}}) {
    if (key < dm.sk) in.k[static_cast<std::size_t>(key * dm.hk * dm.d)] = -inf;
  }
  in.k[static_cast<std::size_t>(((dm.sk - 1) * dm.hk + dm.hk - 1) * dm.d + 1)] = nan;
  in.q[static_cast<std::size_t>(((dm.sq / 2) * dm.h + dm.h - 1) * dm.d + 1)] = nan;
  return in;
}

struct AttnOutputs {
  std::vector<float> out, lse;                // attn_forward
  std::vector<float> acc, row_max, row_sum;   // two online_attn_steps
  std::vector<float> dq, dk, dv;              // online_attn_backward_step
};

// Runs the three simd attention kernels on one case, over query rows
// [r0, r1) of it; outputs hold all sq rows (dk/dv accumulate).
void run_attn_rows(const AttnInputs& in, const AttnMask& mk, std::int64_t r0, std::int64_t r1,
                   AttnOutputs& o) {
  const kernels::Backend& simd = kernels::backend("simd");
  kernels::AttnDims sub = in.dm;
  sub.sq = r1 - r0;
  const std::int64_t hd_stride = in.dm.h * in.dm.d;
  const std::int64_t qo = r0 * hd_stride, ro = r0 * in.dm.h;
  const std::int64_t qp = mk.q_pos0 + r0;
  simd.attn_forward(in.q.data() + qo, in.k.data(), in.v.data(), o.out.data() + qo,
                    o.lse.data() + ro, sub, mk.causal, qp, mk.k_pos0);
  simd.online_attn_step(o.acc.data() + qo, o.row_max.data() + ro, o.row_sum.data() + ro,
                        in.q.data() + qo, in.k.data(), in.v.data(), sub, mk.causal, qp,
                        mk.k_pos0);
  simd.online_attn_step(o.acc.data() + qo, o.row_max.data() + ro, o.row_sum.data() + ro,
                        in.q.data() + qo, in.k2.data(), in.v2.data(), sub, mk.causal, qp,
                        mk.k_pos0);
  // D = rowsum(dout * out), in a fixed scalar order.
  std::vector<float> D(static_cast<std::size_t>(sub.sq * in.dm.h));
  for (std::int64_t r = 0; r < sub.sq * in.dm.h; ++r) {
    float acc = 0.0f;
    for (std::int64_t p = 0; p < in.dm.d; ++p) {
      acc += in.dout[qo + r * in.dm.d + p] * o.out[qo + r * in.dm.d + p];
    }
    D[r] = acc;
  }
  simd.online_attn_backward_step(in.q.data() + qo, in.k.data(), in.v.data(),
                                 in.dout.data() + qo, o.lse.data() + ro, D.data(), sub,
                                 mk.causal, qp, mk.k_pos0, o.dq.data() + qo, o.dk.data(),
                                 o.dv.data());
}

AttnOutputs fresh_outputs(const kernels::AttnDims& dm, std::uint64_t seed) {
  const std::int64_t nq = dm.sq * dm.h * dm.d, nk = dm.sk * dm.hk * dm.d;
  const std::size_t nr = static_cast<std::size_t>(dm.sq * dm.h);
  AttnOutputs o;
  o.out.assign(static_cast<std::size_t>(nq), 0.0f);
  o.lse.assign(nr, 0.0f);
  o.acc.assign(static_cast<std::size_t>(nq), 0.0f);
  o.row_max.assign(nr, -std::numeric_limits<float>::infinity());
  o.row_sum.assign(nr, 0.0f);
  // Gradients accumulate into existing contents.
  o.dq = hash_floats(nq, 7 * seed);
  o.dk = hash_floats(nk, 7 * seed + 1);
  o.dv = hash_floats(nk, 7 * seed + 2);
  return o;
}

struct GoldenDigests {
  std::uint64_t fwd, step, bwd;
};

GoldenDigests golden_digests(std::int64_t d, std::int64_t group) {
  const std::int64_t h = 4;
  Digest fwd, step, bwd;
  std::uint64_t seed = 1000 * static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(group);
  for (const std::int64_t sq : {1, 3, 4, 5, 257}) {
    for (const std::int64_t sk : {1, 7, 8, 9, 512}) {
      for (const AttnMask& mk : kGoldenMasks) {
        ++seed;
        const kernels::AttnDims dm{sq, sk, h, h / group, d, group};
        const AttnInputs in = golden_inputs(dm, seed);
        AttnOutputs o = fresh_outputs(dm, seed);
        run_attn_rows(in, mk, 0, sq, o);
        fwd.add(o.out);
        fwd.add(o.lse);
        step.add(o.acc);
        step.add(o.row_max);
        step.add(o.row_sum);
        bwd.add(o.dq);
        bwd.add(o.dk);
        bwd.add(o.dv);
      }
    }
  }
  return {fwd.h, step.h, bwd.h};
}

TEST(SimdGoldenTest, AttentionKernelsMatchGoldenDigests) {
  if (!kernels::simd_uses_avx2()) GTEST_SKIP() << "simd backend is the portable fallback";
  // d = 8, 16, 32 take the register path; d = 12 the materialised-scores
  // fallback. h = 4 query heads over 4 / group kv heads.
  struct Golden {
    std::int64_t d, group;
    GoldenDigests want;
  };
  const Golden golden[] = {
      {8, 1, {0xcbd229c2414b6dd7ull, 0xe9d9d98490085fcbull, 0x47612cbe5d986628ull}},
      {8, 2, {0x8b6482f5b59d4081ull, 0xbcaeebbc194e0806ull, 0x865fed6b6bd1291cull}},
      {8, 4, {0x5aec30c4ae60c5a5ull, 0x131d1a3a7329e64eull, 0xe115e7851890b948ull}},
      {16, 1, {0xf72f538bf6e2f028ull, 0x64cc41fd00e4c148ull, 0xb89de704404b311full}},
      {16, 2, {0x44622bbaf36b6e3full, 0x5878ea3b97c80a1bull, 0x0acec4e3a15168efull}},
      {16, 4, {0x4ffd29ff85ad17ebull, 0x2257d5e03a12758bull, 0xc5fe394538b82565ull}},
      {32, 1, {0xccf1afd376c56023ull, 0xc8c00ba26a332c6aull, 0x46a02301ceb84f1aull}},
      {32, 2, {0x1967b2330b11e51cull, 0x39af8f541c2b933full, 0xcad5c99de38629dbull}},
      {32, 4, {0x26eddeac9cd750a6ull, 0xed98a875ec39723full, 0xa3fa585a3e2a1241ull}},
      {12, 1, {0xfac889412e107a11ull, 0x21be094cb9e5d468ull, 0x4a5828d90efca601ull}},
      {12, 2, {0xa28999eed3922704ull, 0x8bef3e1e64cc2c8full, 0xab6a2f15ef1ee60bull}},
      {12, 4, {0x9a3d9c6bd7107624ull, 0x3cae3999894b8837ull, 0x927102a09e57fa4full}},
  };
  for (const Golden& g : golden) {
    const GoldenDigests got = golden_digests(g.d, g.group);
    const bool ok = got.fwd == g.want.fwd && got.step == g.want.step && got.bwd == g.want.bwd;
    char line[160];
    std::snprintf(line, sizeof(line), "{%lld, %lld, {0x%016llxull, 0x%016llxull, 0x%016llxull}}",
                  static_cast<long long>(g.d), static_cast<long long>(g.group),
                  static_cast<unsigned long long>(got.fwd),
                  static_cast<unsigned long long>(got.step),
                  static_cast<unsigned long long>(got.bwd));
    EXPECT_TRUE(ok) << "digest drift, got " << line;
  }
}

TEST(SimdGoldenTest, RowSplitsMatchWholeCall) {
  // A call over a row range must give those rows exactly what one call over
  // all rows gives them, wherever the range starts: tile edges move with
  // it. For the backward, consecutive ranges accumulating into one dk/dv
  // must equal one whole call, since both add rows in ascending order. (That
  // needs one query head per kv head: a call adds head by head, so under GQA
  // a split interleaves the group's heads differently.)
  const std::int64_t sq = 37;
  const std::int64_t cuts[] = {0, 1, 6, 19, 22, 23, 37};
  for (const std::int64_t d : {8, 16, 32}) {
    for (const AttnMask& mk : kGoldenMasks) {
      const kernels::AttnDims dm{sq, 77, 4, 4, d, 1};
      const std::uint64_t seed = 50 + static_cast<std::uint64_t>(d);
      const AttnInputs in = golden_inputs(dm, seed);
      AttnOutputs whole = fresh_outputs(dm, seed);
      run_attn_rows(in, mk, 0, sq, whole);
      AttnOutputs split = fresh_outputs(dm, seed);
      for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
        run_attn_rows(in, mk, cuts[c], cuts[c + 1], split);
      }
      const auto same = [&](const std::vector<float>& a, const std::vector<float>& b,
                            const char* what) {
        Digest da, db;
        da.add(a);
        db.add(b);
        EXPECT_EQ(da.h, db.h) << what << " d=" << d << " causal=" << mk.causal
                              << " q_pos0=" << mk.q_pos0 << " k_pos0=" << mk.k_pos0;
      };
      same(whole.out, split.out, "out");
      same(whole.lse, split.lse, "lse");
      same(whole.acc, split.acc, "acc");
      same(whole.row_max, split.row_max, "row_max");
      same(whole.row_sum, split.row_sum, "row_sum");
      same(whole.dq, split.dq, "dq");
      same(whole.dk, split.dk, "dk");
      same(whole.dv, split.dv, "dv");
    }
  }
}

// Two online forward steps (k/v, then k2/v2) and one backward step on the
// simd backend; returns the attention FLOPs the calls charged.
std::int64_t run_online_attn(const AttnInputs& in, const AttnMask& mk,
                             const std::vector<float>& lse, const std::vector<float>& D,
                             AttnOutputs& o) {
  const kernels::Backend& simd = kernels::backend("simd");
  obs::WorkSink sink;
  obs::WorkSink* const prev = std::exchange(obs::t_work_sink, &sink);
  for (const auto& [k, v] : {std::pair{&in.k, &in.v}, std::pair{&in.k2, &in.v2}}) {
    simd.online_attn_step(o.acc.data(), o.row_max.data(), o.row_sum.data(), in.q.data(),
                          k->data(), v->data(), in.dm, mk.causal, mk.q_pos0, mk.k_pos0);
  }
  simd.online_attn_backward_step(in.q.data(), in.k.data(), in.v.data(), in.dout.data(),
                                 lse.data(), D.data(), in.dm, mk.causal, mk.q_pos0, mk.k_pos0,
                                 o.dq.data(), o.dk.data(), o.dv.data());
  obs::t_work_sink = prev;
  return sink.kind[static_cast<int>(obs::OpKind::kAttention)].flops;
}

TEST(SimdDifferentialTest, KvHeadGroupTilesMatchWholeCall) {
  // Inside a rank body with idle helpers, the simd backend splits online
  // attention into KV-head groups, each on packed copies of its heads. A
  // group runs its heads exactly as the whole call does, so two rank bodies
  // at 4 workers must give bitwise what one worker (no split) gives, and
  // charge the same FLOPs. sq = 130 leaves a 2-row tail after the 4-row
  // tiles; the last mask puts the KV chunk wholly in the causal future.
  constexpr AttnMask kMasks[] = {
      {false, 0, 0}, {true, 0, 0}, {true, 13, 0}, {true, 0, 3}, {true, 0, 400}};
  const std::pair<std::int64_t, std::int64_t> heads[] = {{2, 2}, {4, 2}, {4, 4}, {8, 2}};
  const int saved = parallel_workers();
  std::uint64_t seed = 900;
  for (const std::int64_t d : {8, 12, 16, 32}) {
    for (const auto& [h, hk] : heads) {
      for (const AttnMask& mk : kMasks) {
        SCOPED_TRACE(::testing::Message() << "d=" << d << " h=" << h << " hk=" << hk
                                          << " causal=" << mk.causal << " q_pos0=" << mk.q_pos0
                                          << " k_pos0=" << mk.k_pos0);
        const kernels::AttnDims dm{130, 77, h, hk, d, h / hk};
        const AttnInputs in = golden_inputs(dm, ++seed);
        const std::vector<float> lse = hash_floats(dm.sq * dm.h, 3 * seed);
        const std::vector<float> D = hash_floats(dm.sq * dm.h, 3 * seed + 1);
        set_parallel_workers(1);
        AttnOutputs whole = fresh_outputs(dm, seed);
        const std::int64_t whole_flops = run_online_attn(in, mk, lse, D, whole);
        set_parallel_workers(4);
        AttnOutputs tiled[2] = {fresh_outputs(dm, seed), fresh_outputs(dm, seed)};
        std::int64_t tiled_flops[2] = {0, 0};
        parallel_for_ranks(2, [&](int r) {
          tiled_flops[r] = run_online_attn(in, mk, lse, D, tiled[r]);
        });
        for (int r = 0; r < 2; ++r) {
          const auto same = [&](const std::vector<float>& a, const std::vector<float>& b) {
            return a.size() == b.size() &&
                   std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
          };
          EXPECT_TRUE(same(whole.acc, tiled[r].acc)) << "acc, rank " << r;
          EXPECT_TRUE(same(whole.row_max, tiled[r].row_max)) << "row_max, rank " << r;
          EXPECT_TRUE(same(whole.row_sum, tiled[r].row_sum)) << "row_sum, rank " << r;
          EXPECT_TRUE(same(whole.dq, tiled[r].dq)) << "dq, rank " << r;
          EXPECT_TRUE(same(whole.dk, tiled[r].dk)) << "dk, rank " << r;
          EXPECT_TRUE(same(whole.dv, tiled[r].dv)) << "dv, rank " << r;
          EXPECT_EQ(whole_flops, tiled_flops[r]) << "rank " << r;
        }
      }
    }
  }
  set_parallel_workers(saved);
}

// ---- active-backend property checks (run under both sanitize lanes) -------

TEST(ActiveBackendTest, AttentionRowsSumToOne) {
  // Whatever backend FPDT_KERNEL_BACKEND selected: softmax rows normalize
  // and uniform-value attention reproduces the value exactly.
  Rng rng(13);
  Tensor x = testing::random_tensor({5, 23}, rng);
  softmax_rows_(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    float z = 0.0f;
    for (std::int64_t j = 0; j < 23; ++j) z += x.at({r, j});
    EXPECT_NEAR(z, 1.0f, 1e-5);
  }
  Tensor q = testing::random_tensor({3, 2, 8}, rng);
  Tensor k = testing::random_tensor({6, 2, 8}, rng);
  Tensor v = Tensor::full({6, 2, 8}, 2.5f);
  const nn::AttentionOutput out = nn::reference_attention_forward(q, k, v, false, 0, 0);
  for (std::int64_t i = 0; i < out.out.numel(); ++i) {
    EXPECT_NEAR(out.out.data()[i], 2.5f, 1e-4);
  }
}

TEST(ActiveBackendTest, AttentionBackwardMatchesFiniteDifferences) {
  // Gradient correctness holds for the active backend, not just scalar.
  Rng rng(23);
  Tensor q = testing::random_tensor({3, 2, 4}, rng, 0.5);
  Tensor k = testing::random_tensor({3, 2, 4}, rng, 0.5);
  Tensor v = testing::random_tensor({3, 2, 4}, rng, 0.5);
  Tensor dout = Tensor::full({3, 2, 4}, 1.0f);
  const nn::AttentionOutput fwd = nn::reference_attention_forward(q, k, v, true, 0, 0);
  nn::AttentionGrads g = nn::reference_attention_backward(dout, q, k, v, fwd.out, true, 0, 0);
  const auto loss = [&]() {
    const nn::AttentionOutput o = nn::reference_attention_forward(q, k, v, true, 0, 0);
    double sum = 0.0;
    for (std::int64_t i = 0; i < o.out.numel(); ++i) sum += o.out.data()[i];
    return sum;
  };
  // Larger eps than the default: the summed-output loss gives some
  // coordinates gradients near the float forward-pass noise floor, so the
  // difference step must be big enough to rise above output rounding.
  testing::expect_grad_matches(q, g.dq, loss, 6, rng, 2e-2, 5e-2);
  testing::expect_grad_matches(k, g.dk, loss, 6, rng, 2e-2, 5e-2);
  testing::expect_grad_matches(v, g.dv, loss, 6, rng, 2e-2, 5e-2);
}

// ---- work metering ----------------------------------------------------------

TEST(WorkmeterBackendTest, ScalarAndSimdChargeBitIdenticalWork) {
  // Work is charged analytically from shapes at the dispatch layer, so the
  // same call sequence on the scalar reference and the simd backend must
  // account bit-identical integer FLOP/byte/call totals in every op family
  // — the invariant ci/bench_smoke.sh gates end to end.
  obs::Workmeter& meter = obs::Workmeter::instance();

  const auto run = [&](const char* name) {
    const kernels::Backend& be = kernels::backend(name);
    Rng rng(99);
    const std::int64_t m = 5, k = 7, n = 9;
    Tensor a = testing::random_tensor({m, k}, rng);
    Tensor b = testing::random_tensor({n, k}, rng);
    Tensor c = Tensor::full({m, n}, 0.0f);

    kernels::AttnDims dm;
    dm.sq = 4;
    dm.sk = 6;
    dm.h = 2;
    dm.hk = 2;
    dm.d = 8;
    dm.group = 1;
    Tensor q = testing::random_tensor({dm.sq, dm.h, dm.d}, rng);
    Tensor kk = testing::random_tensor({dm.sk, dm.hk, dm.d}, rng);
    Tensor v = testing::random_tensor({dm.sk, dm.hk, dm.d}, rng);
    Tensor out = Tensor::full({dm.sq, dm.h, dm.d}, 0.0f);
    Tensor lse = Tensor::full({dm.sq, dm.h}, 0.0f);

    const std::int64_t rows = 3, cols = 17;
    Tensor sm = testing::random_tensor({rows, cols}, rng);
    Tensor gamma = testing::random_tensor({cols}, rng);
    Tensor beta = testing::random_tensor({cols}, rng);
    Tensor y = Tensor::full({rows, cols}, 0.0f);
    Tensor mean = Tensor::full({rows}, 0.0f);
    Tensor rstd = Tensor::full({rows}, 0.0f);

    meter.reset();
    meter.set_enabled(true);
    be.gemm_nt(a.data(), b.data(), c.data(), m, k, n);
    be.attn_forward(q.data(), kk.data(), v.data(), out.data(), lse.data(), dm,
                    /*causal=*/true, 0, 0);
    be.softmax_rows(sm.data(), rows, cols);
    be.layernorm_forward(sm.data(), gamma.data(), beta.data(), y.data(), mean.data(),
                         rstd.data(), rows, cols, 1e-5f);
    be.gelu_forward(sm.data(), y.data(), rows * cols);
    meter.set_enabled(false);
    return meter.snapshot();
  };

  const obs::WorkSnapshot scalar = run("scalar");
  const obs::WorkSnapshot simd = run("simd");
  for (int k = 0; k < obs::kOpKinds; ++k) {
    const char* kind = obs::op_kind_name(static_cast<obs::OpKind>(k));
    EXPECT_EQ(scalar.calls[k], 1) << kind;  // one call per family above
    EXPECT_GT(scalar.kind[k].flops, 0) << kind;
    EXPECT_GT(scalar.kind[k].bytes, 0) << kind;
    EXPECT_EQ(scalar.kind[k].flops, simd.kind[k].flops) << kind;
    EXPECT_EQ(scalar.kind[k].bytes, simd.kind[k].bytes) << kind;
    EXPECT_EQ(scalar.calls[k], simd.calls[k]) << kind;
  }
}

// ---- analytic cost formulas -------------------------------------------------

// The per-row definition attn_unmasked_pairs() closes: the sum of every
// query row's causal_bound().
std::int64_t pairs_by_rows(const kernels::AttnDims& dm, bool causal, std::int64_t q_pos0,
                           std::int64_t k_pos0) {
  std::int64_t pairs = 0;
  for (std::int64_t i = 0; i < dm.sq; ++i) {
    pairs += kernels::causal_bound(causal, q_pos0 + i, k_pos0, dm.sk);
  }
  return pairs;
}

TEST(OpCostTest, UnmaskedPairsClosedFormMatchesRowLoop) {
  auto expect_same = [](std::int64_t sq, std::int64_t sk, bool causal, std::int64_t q_pos0,
                        std::int64_t k_pos0) {
    kernels::AttnDims dm;
    dm.sq = sq;
    dm.sk = sk;
    EXPECT_EQ(kernels::attn_unmasked_pairs(dm, causal, q_pos0, k_pos0),
              pairs_by_rows(dm, causal, q_pos0, k_pos0))
        << "sq=" << sq << " sk=" << sk << " causal=" << causal << " q_pos0=" << q_pos0
        << " k_pos0=" << k_pos0;
  };
  // Edge shapes: the chunk pairs FPDT schedules (diagonal, below, above the
  // diagonal), a query chunk entirely before its keys (bound 0 on every
  // row), bounds past sk, single-row decode, empty key chunks, non-causal.
  for (bool causal : {true, false}) {
    expect_same(64, 64, causal, 0, 0);
    expect_same(64, 64, causal, 128, 64);
    expect_same(64, 64, causal, 0, 64);
    expect_same(16, 64, causal, 0, 1000);
    expect_same(16, 8, causal, 1000, 0);
    expect_same(1, 4096, causal, 4095, 0);
    expect_same(1, 4096, causal, 17, 0);
    expect_same(1, 1, causal, 0, 0);
    expect_same(32, 0, causal, 5, 0);
    expect_same(0, 32, causal, 5, 0);
    expect_same(7, 5, causal, 2, 3);
  }
  Rng rng(2026);
  for (int t = 0; t < 2000; ++t) {
    const auto draw = [&](std::int64_t n) {
      return static_cast<std::int64_t>(rng.next_uniform() * static_cast<double>(n));
    };
    expect_same(1 + draw(300), draw(300), t % 5 != 0, draw(600), draw(600));
  }
}

}  // namespace
}  // namespace fpdt
