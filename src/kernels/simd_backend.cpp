// The "simd" backend: runtime-dispatched AVX2/FMA kernels (simd_avx2.cpp)
// with a portable fallback that delegates to the scalar reference loops, so
// selecting "simd" is always safe — on hardware without AVX2 (or a build
// whose compiler can't emit it) it degrades to scalar semantics exactly.
//
// On top of the vector kernels, large calls fork across the persistent
// common/thread_pool workers in two ways:
//   - Row forks (parallel_for_ranks), only from the top level
//     (!in_parallel_region()): GEMMs and the attention forwards split query
//     rows. Inside a rank body (FPDT attention, Megatron-SP's per-rank
//     GEMMs, ZeRO's per-rank Adam) a rank fork would run inline.
//   - KV-head-group tiles (parallel_for_tiles) for online attention: the
//     forward inside a rank body, the backward anywhere. Each tile takes a
//     contiguous group of KV heads with their query heads, packs its slices
//     into per-thread scratch, runs the unchanged kernel on them and copies
//     its results back. Tiles claim only idle helpers, so this is how the
//     FPDT rank bodies use the workers that P < parallel_workers() ranks
//     leave parked. Packing is what makes it pay: a head's dq/dk/dv slice
//     is d floats, so unpacked neighbouring heads share cache lines across
//     threads.
// Ops that accumulate into operands shared across rows (gemm_tn's C, norm
// backward's dgamma/dbeta) stay single-threaded on the calling thread. Row
// forks split rows, never a row's reduction, and a KV group runs each of its
// heads exactly as the whole call does (the same rows, the same order into
// each head's dk/dv), so forked and inline results are bit-identical.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <vector>

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

#if defined(FPDT_KERNEL_AVX2)
// ---- KV-head-group tiles ----------------------------------------------------

// Calls with fewer query rows than this run whole: a tile's wake-up and
// packing would cost more than its share of the kernel.
bool should_split_heads(const AttnDims& dm) {
  return dm.hk > 1 && dm.sq >= kMinRowsPerFork && parallel_workers() > 1;
}

// One operand's slice for a head group: `rows` runs of `width` floats,
// `ld` apart, starting `off` floats into the operand.
struct Strided {
  std::int64_t rows = 0, ld = 0, width = 0, off = 0;
};

// Tile t of `tiles` over a call's KV heads: a contiguous run of KV heads
// with their query heads. `dm` is the tile's own call; the slices are what
// it covers of the whole call's [sq, h, d] query-side tensors, [sq, h] row
// statistics and [sk, hk, d] key-side tensors.
struct HeadGroup {
  AttnDims dm;
  Strided q_side, stats, kv_side;

  HeadGroup(const AttnDims& full, int tiles, int t) : dm(full) {
    const std::int64_t kv0 = full.hk * t / tiles, q0 = kv0 * full.group;
    dm.hk = full.hk * (t + 1) / tiles - kv0;
    dm.h = dm.hk * full.group;
    q_side = {full.sq, full.h * full.d, dm.h * full.d, q0 * full.d};
    stats = {full.sq, full.h, dm.h, q0};
    kv_side = {full.sk, full.hk * full.d, dm.hk * full.d, kv0 * full.d};
  }
};

// Per-thread packing scratch, grown on demand and reused across calls. Each
// slice starts on its own 64-byte line, so threads never write one line.
class TileScratch {
 public:
  explicit TileScratch(std::initializer_list<Strided> slices) {
    std::int64_t floats = kLine;
    for (const Strided& s : slices) floats += padded(s.rows * s.width);
    thread_local std::vector<float> buf;
    if (static_cast<std::int64_t>(buf.size()) < floats) {
      buf.resize(static_cast<std::size_t>(floats));
    }
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    next_ = buf.data() + (kLine - addr / sizeof(float) % kLine) % kLine;
  }

  // Copies `s` of `src` into the next dense block and returns it.
  float* pack(const float* src, const Strided& s) {
    float* dst = next_;
    next_ += padded(s.rows * s.width);
    for (std::int64_t r = 0; r < s.rows; ++r) {
      std::memcpy(dst + r * s.width, src + s.off + r * s.ld,
                  static_cast<std::size_t>(s.width) * sizeof(float));
    }
    return dst;
  }

  static void unpack(const float* packed, float* dst, const Strided& s) {
    for (std::int64_t r = 0; r < s.rows; ++r) {
      std::memcpy(dst + s.off + r * s.ld, packed + r * s.width,
                  static_cast<std::size_t>(s.width) * sizeof(float));
    }
  }

 private:
  static constexpr std::int64_t kLine = 64 / sizeof(float);
  static std::int64_t padded(std::int64_t n) { return (n + kLine - 1) / kLine * kLine; }

  float* next_ = nullptr;
};

// Runs body(group) for each KV-head group, possibly concurrently.
template <typename Body>
void fork_head_groups(const AttnDims& dm, const Body& body) {
  const int tiles = static_cast<int>(std::min<std::int64_t>(dm.hk, parallel_workers()));
  parallel_for_tiles(tiles, [&](int t) { body(HeadGroup(dm, tiles, t)); });
}
#endif

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
      } else if (should_split_heads(dm)) {
        fork_head_groups(dm, [&](const HeadGroup& g) {
          TileScratch ts{g.q_side, g.q_side, g.stats, g.stats, g.kv_side, g.kv_side};
          float* pacc = ts.pack(acc, g.q_side);
          float* pmax = ts.pack(row_max, g.stats);
          float* psum = ts.pack(row_sum, g.stats);
          avx2::online_attn_step(pacc, pmax, psum, ts.pack(q, g.q_side), ts.pack(k, g.kv_side),
                                 ts.pack(v, g.kv_side), g.dm, causal, q_pos0, k_pos0);
          TileScratch::unpack(pacc, acc, g.q_side);
          TileScratch::unpack(pmax, row_max, g.stats);
          TileScratch::unpack(psum, row_sum, g.stats);
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
    // dk/dv accumulate contributions from every query row, so a row split
    // would race; a KV-head group owns its heads' dk/dv rows outright.
#if defined(FPDT_KERNEL_AVX2)
    if (avx2_enabled()) {
      if (should_split_heads(dm)) {
        fork_head_groups(dm, [&](const HeadGroup& g) {
          TileScratch ts{g.q_side,  g.q_side,  g.q_side,  g.stats, g.stats,
                         g.kv_side, g.kv_side, g.kv_side, g.kv_side};
          float* pdq = ts.pack(dq, g.q_side);
          float* pdk = ts.pack(dk, g.kv_side);
          float* pdv = ts.pack(dv, g.kv_side);
          avx2::online_attn_backward_step(
              ts.pack(q, g.q_side), ts.pack(k, g.kv_side), ts.pack(v, g.kv_side),
              ts.pack(dout, g.q_side), ts.pack(lse, g.stats), ts.pack(D, g.stats), g.dm, causal,
              q_pos0, k_pos0, pdq, pdk, pdv);
          TileScratch::unpack(pdq, dq, g.q_side);
          TileScratch::unpack(pdk, dk, g.kv_side);
          TileScratch::unpack(pdv, dv, g.kv_side);
        });
      } else {
        avx2::online_attn_backward_step(q, k, v, dout, lse, D, dm, causal, q_pos0, k_pos0, dq,
                                        dk, dv);
      }
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
