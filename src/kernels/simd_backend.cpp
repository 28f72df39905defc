// The "simd" backend: runtime-dispatched AVX2/FMA kernels (simd_avx2.cpp)
// with a portable fallback that delegates to the scalar reference loops, so
// selecting "simd" is always safe — on hardware without AVX2 (or a build
// whose compiler can't emit it) it degrades to scalar semantics exactly.
//
// On top of the vector kernels, large row-partitionable ops fork across
// the persistent common/thread_pool workers — but only from the top level
// (!in_parallel_region()): FPDT attention, Megatron-SP's per-rank GEMMs
// and ZeRO's per-rank Adam already run inside parallel_for_ranks bodies,
// one rank per worker, and a nested call would run inline anyway. Ops that
// accumulate into operands shared across rows (gemm_tn's C, backward's
// dk/dv) stay single-threaded on the calling worker. Row forks split rows,
// never a row's reduction, so forked and inline results are bit-identical.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/simd_avx2.h"

namespace fpdt::kernels {

std::unique_ptr<Backend> make_scalar_backend();  // scalar_backend.cpp

namespace {

bool detect_avx2() {
#if defined(FPDT_KERNEL_AVX2)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool avx2_enabled() {
  static const bool enabled = detect_avx2();
  return enabled;
}

// Rows below this run on the calling thread even when workers are
// available: fork-join overhead swamps the kernel at small sizes.
constexpr std::int64_t kMinRowsPerFork = 128;

bool should_fork(std::int64_t rows) {
  return rows >= kMinRowsPerFork && parallel_workers() > 1 && !in_parallel_region();
}

// Splits [0, rows) into one contiguous chunk per worker and runs
// body(row0, nrows) for each, possibly concurrently.
template <typename Body>
void fork_rows(std::int64_t rows, const Body& body) {
  const int workers = std::min<std::int64_t>(parallel_workers(), rows);
  const std::int64_t chunk = (rows + workers - 1) / workers;
  parallel_for_ranks(workers, [&](int w) {
    const std::int64_t row0 = w * chunk;
    const std::int64_t nrows = std::min<std::int64_t>(chunk, rows - row0);
    if (nrows > 0) body(row0, nrows);
  });
}

class SimdBackend final : public Backend {
 public:
  SimdBackend() : scalar_(make_scalar_backend()) {}

  const char* name() const override { return "simd"; }

  // ---- GEMM family ---------------------------------------------------------

  void gemm_nn_acc(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      if (should_fork(m)) {
        fork_rows(m, [&](std::int64_t i0, std::int64_t mi) {
          avx2::gemm_nn_acc(a + i0 * k, b, c + i0 * n, mi, k, n);
        });
      } else {
        avx2::gemm_nn_acc(a, b, c, m, k, n);
      }
      return;
    }
#endif
    scalar_->gemm_nn_acc(a, b, c, m, k, n);
  }

  void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
               std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      if (should_fork(m)) {
        fork_rows(m, [&](std::int64_t i0, std::int64_t mi) {
          avx2::gemm_nt(a + i0 * k, b, c + i0 * n, mi, k, n);
        });
      } else {
        avx2::gemm_nt(a, b, c, m, k, n);
      }
      return;
    }
#endif
    scalar_->gemm_nt(a, b, c, m, k, n);
  }

  void gemm_tn_acc(const float* a, const float* b, float* c, std::int64_t k, std::int64_t m,
                   std::int64_t n) const override {
    // Every rank-1 update writes all of C — no conflict-free row split, so
    // this one stays on the calling thread.
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::gemm_tn_acc(a, b, c, k, m, n);
      return;
    }
#endif
    scalar_->gemm_tn_acc(a, b, c, k, m, n);
  }

  // ---- Attention -----------------------------------------------------------

  void attn_forward(const float* q, const float* k, const float* v, float* out, float* lse,
                    const AttnDims& dm, bool causal, std::int64_t q_pos0,
                    std::int64_t k_pos0) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      if (should_fork(dm.sq)) {
        fork_rows(dm.sq, [&](std::int64_t i0, std::int64_t ni) {
          AttnDims sub = dm;
          sub.sq = ni;
          avx2::attn_forward(q + i0 * dm.h * dm.d, k, v, out + i0 * dm.h * dm.d, lse + i0 * dm.h,
                             sub, causal, q_pos0 + i0, k_pos0);
        });
      } else {
        avx2::attn_forward(q, k, v, out, lse, dm, causal, q_pos0, k_pos0);
      }
      return;
    }
#endif
    scalar_->attn_forward(q, k, v, out, lse, dm, causal, q_pos0, k_pos0);
  }

  void online_attn_step(float* acc, float* row_max, float* row_sum, const float* q,
                        const float* k, const float* v, const AttnDims& dm, bool causal,
                        std::int64_t q_pos0, std::int64_t k_pos0) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      if (should_fork(dm.sq)) {
        fork_rows(dm.sq, [&](std::int64_t i0, std::int64_t ni) {
          AttnDims sub = dm;
          sub.sq = ni;
          avx2::online_attn_step(acc + i0 * dm.h * dm.d, row_max + i0 * dm.h,
                                 row_sum + i0 * dm.h, q + i0 * dm.h * dm.d, k, v, sub, causal,
                                 q_pos0 + i0, k_pos0);
        });
      } else {
        avx2::online_attn_step(acc, row_max, row_sum, q, k, v, dm, causal, q_pos0, k_pos0);
      }
      return;
    }
#endif
    scalar_->online_attn_step(acc, row_max, row_sum, q, k, v, dm, causal, q_pos0, k_pos0);
  }

  void online_attn_backward_step(const float* q, const float* k, const float* v,
                                 const float* dout, const float* lse, const float* D,
                                 const AttnDims& dm, bool causal, std::int64_t q_pos0,
                                 std::int64_t k_pos0, float* dq, float* dk,
                                 float* dv) const override {
    // dk/dv accumulate contributions from every query row — a row split
    // would race, so this stays on the calling thread.
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::online_attn_backward_step(q, k, v, dout, lse, D, dm, causal, q_pos0, k_pos0, dq, dk,
                                      dv);
      return;
    }
#endif
    scalar_->online_attn_backward_step(q, k, v, dout, lse, D, dm, causal, q_pos0, k_pos0, dq, dk,
                                       dv);
  }

  // ---- Rowwise reductions & activations ------------------------------------
  // All of these run their transcendentals (exp/tanh/sigmoid) through the
  // same polynomial vector exp as the attention kernels; norm backward
  // passes accumulate into row-shared dgamma/dbeta, so norms stay on the
  // calling thread.

  void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::softmax_rows(x, rows, cols);
      return;
    }
#endif
    scalar_->softmax_rows(x, rows, cols);
  }

  void layernorm_forward(const float* x, const float* gamma, const float* beta, float* y,
                         float* mean, float* rstd, std::int64_t rows, std::int64_t n,
                         float eps) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::layernorm_forward(x, gamma, beta, y, mean, rstd, rows, n, eps);
      return;
    }
#endif
    scalar_->layernorm_forward(x, gamma, beta, y, mean, rstd, rows, n, eps);
  }
  void layernorm_backward(const float* x, const float* dy, const float* gamma, const float* mean,
                          const float* rstd, float* dx, float* dgamma, float* dbeta,
                          std::int64_t rows, std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::layernorm_backward(x, dy, gamma, mean, rstd, dx, dgamma, dbeta, rows, n);
      return;
    }
#endif
    scalar_->layernorm_backward(x, dy, gamma, mean, rstd, dx, dgamma, dbeta, rows, n);
  }
  void rmsnorm_forward(const float* x, const float* gamma, float* y, float* rstd,
                       std::int64_t rows, std::int64_t n, float eps) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::rmsnorm_forward(x, gamma, y, rstd, rows, n, eps);
      return;
    }
#endif
    scalar_->rmsnorm_forward(x, gamma, y, rstd, rows, n, eps);
  }
  void rmsnorm_backward(const float* x, const float* dy, const float* gamma, const float* rstd,
                        float* dx, float* dgamma, std::int64_t rows,
                        std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::rmsnorm_backward(x, dy, gamma, rstd, dx, dgamma, rows, n);
      return;
    }
#endif
    scalar_->rmsnorm_backward(x, dy, gamma, rstd, dx, dgamma, rows, n);
  }
  void gelu_forward(const float* x, float* y, std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::gelu_forward(x, y, n);
      return;
    }
#endif
    scalar_->gelu_forward(x, y, n);
  }
  void gelu_backward_mul(const float* x, float* dx, std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::gelu_backward_mul(x, dx, n);
      return;
    }
#endif
    scalar_->gelu_backward_mul(x, dx, n);
  }
  void silu_forward(const float* x, float* y, std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::silu_forward(x, y, n);
      return;
    }
#endif
    scalar_->silu_forward(x, y, n);
  }
  void silu_backward_mul(const float* x, float* dx, std::int64_t n) const override {
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      avx2::silu_backward_mul(x, dx, n);
      return;
    }
#endif
    scalar_->silu_backward_mul(x, dx, n);
  }

 private:
  std::unique_ptr<Backend> scalar_;
};

}  // namespace

std::unique_ptr<Backend> make_simd_backend() { return std::make_unique<SimdBackend>(); }

bool simd_uses_avx2() { return avx2_enabled(); }

}  // namespace fpdt::kernels
