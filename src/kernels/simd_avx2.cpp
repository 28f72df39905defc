// AVX2/FMA kernels for the "simd" backend. This translation unit is the
// only one compiled with -mavx2 -mfma; simd_backend.cpp guards every call
// behind a runtime __builtin_cpu_supports check, so these instructions
// never execute on hardware that lacks them.
//
// GEMM design: register-tiled micro-kernels (4 rows × 16 columns = 8 ymm
// accumulators for NN/TN, 4 dot-product accumulators for NT) under a
// K-blocking loop (kKc floats) that keeps the streamed B panel hot in L1/L2
// across the row sweep — the classic BLIS/MLAS decomposition, minus packing
// (row-major panels are already contiguous in the dimensions we stream).
// Attention kernels keep the scalar backend's loop structure (per-row
// online softmax) and vectorise both the d-dimension dot/axpy inner loops
// and the per-score exponentials (exp8 below) — with the dots vectorised,
// scalar std::exp over every score becomes the dominant serial cost. For
// head dims up to 32 they sweep tiles of query rows (kTileRows) whose
// per-row arithmetic is bitwise the single-row sweep's.
#include "kernels/simd_avx2.h"

#if defined(FPDT_KERNEL_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "kernels/elementwise.h"

namespace fpdt::kernels::avx2 {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// K-block size for the GEMM family: a [kKc, 16] B panel is 32 KiB — fits
// L1d alongside the A rows it multiplies.
constexpr std::int64_t kKc = 512;

inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// <a, b> over d elements, 2-way unrolled 8-lane FMA with a scalar tail.
inline float dot(const float* a, const float* b, std::int64_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 16 <= d; p += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 8), _mm256_loadu_ps(b + p + 8), acc1);
  }
  for (; p + 8 <= d; p += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p), acc0);
  }
  float acc = hsum8(_mm256_add_ps(acc0, acc1));
  for (; p < d; ++p) acc += a[p] * b[p];
  return acc;
}

// acc[0..d) += w * v[0..d)
inline void axpy(float w, const float* v, float* acc, std::int64_t d) {
  const __m256 vw = _mm256_set1_ps(w);
  std::int64_t p = 0;
  for (; p + 8 <= d; p += 8) {
    _mm256_storeu_ps(acc + p, _mm256_fmadd_ps(vw, _mm256_loadu_ps(v + p), _mm256_loadu_ps(acc + p)));
  }
  for (; p < d; ++p) acc[p] += w * v[p];
}

// 8-lane expf: Cephes-style 2^n * e^r decomposition with a degree-5
// polynomial for e^r, ~1 ulp over the range attention feeds it (scores
// minus a row max, so x <= 0 up to rounding). Semantics the kernels rely
// on: NaN in -> NaN out (the all-(-inf)-row 0/0 case must propagate), and
// x <= -88.4 (including -inf) underflows to exactly +0.0, matching the
// weight-zero behaviour of masked-scale scores under std::exp.
inline __m256 exp8(__m256 x) {
  // Clamp with x as the second operand of min/max so a NaN input survives
  // (vminps/vmaxps forward src2 when either operand is NaN).
  x = _mm256_max_ps(_mm256_set1_ps(-88.3762626647949f),
                    _mm256_min_ps(_mm256_set1_ps(88.3762626647949f), x));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f), _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);  // n = round-to-minus-inf(x/ln2 + 1/2)
  // r = x - n*ln2, ln2 split into a high and low part for extra bits.
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, x2, _mm256_add_ps(x, _mm256_set1_ps(1.0f)));
  // 2^n via the exponent field; n = -127 collapses to +0.0 (underflow).
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

// Transpose-reduce: lane t of the result is the full horizontal sum of
// acc[t]. Reduces 8 dot-product accumulators in ~12 shuffles instead of 8
// independent hsum8 calls — the difference between the score loop being
// FMA-bound and shuffle-bound at small head dims.
inline __m256 hsum8x8(const __m256 acc[8]) {
  const __m256 s01 = _mm256_hadd_ps(acc[0], acc[1]);
  const __m256 s23 = _mm256_hadd_ps(acc[2], acc[3]);
  const __m256 s0123 = _mm256_hadd_ps(s01, s23);
  const __m256 s45 = _mm256_hadd_ps(acc[4], acc[5]);
  const __m256 s67 = _mm256_hadd_ps(acc[6], acc[7]);
  const __m256 s4567 = _mm256_hadd_ps(s45, s67);
  return _mm256_add_ps(_mm256_permute2f128_ps(s0123, s4567, 0x20),
                       _mm256_permute2f128_ps(s0123, s4567, 0x31));
}

// out[t] = sc * <q, rows[t]> for 8 rows starting at r0 with stride ldr.
inline void dot8(const float* q, const float* r0, std::int64_t ldr, std::int64_t d, float sc,
                 float* out) {
  __m256 acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 8 <= d; p += 8) {
    const __m256 qv = _mm256_loadu_ps(q + p);
    for (int t = 0; t < 8; ++t) {
      acc[t] = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + t * ldr + p), acc[t]);
    }
  }
  _mm256_storeu_ps(out, hsum8x8(acc));
  if (p < d) {
    for (int t = 0; t < 8; ++t) {
      const float* row = r0 + t * ldr;
      float extra = 0.0f;
      for (std::int64_t pp = p; pp < d; ++pp) extra += q[pp] * row[pp];
      out[t] += extra;
    }
  }
  _mm256_storeu_ps(out, _mm256_mul_ps(_mm256_loadu_ps(out), _mm256_set1_ps(sc)));
}

// All jn scores of one query row against keys strided by ldr.
inline void score_row(const float* q, const float* k0, std::int64_t ldr, std::int64_t d, float sc,
                      float* scores, std::int64_t jn) {
  std::int64_t j = 0;
  for (; j + 8 <= jn; j += 8) dot8(q, k0 + j * ldr, ldr, d, sc, scores + j);
  for (; j < jn; ++j) scores[j] = dot(q, k0 + j * ldr, d) * sc;
}

inline float max_of(const float* w, std::int64_t jn) {
  float m = kNegInf;
  std::int64_t j = 0;
  if (jn >= 8) {
    __m256 vm = _mm256_loadu_ps(w);
    for (j = 8; j + 8 <= jn; j += 8) vm = _mm256_max_ps(vm, _mm256_loadu_ps(w + j));
    __m128 s = _mm_max_ps(_mm256_castps256_ps128(vm), _mm256_extractf128_ps(vm, 1));
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
    m = _mm_cvtss_f32(s);
  }
  for (; j < jn; ++j) m = std::max(m, w[j]);
  return m;
}

// out[p_block] (+)= sum_j w[j] * rows[j][p_block], keeping the d-block
// accumulator in a register across the whole j sweep instead of streaming
// the output row through memory once per key.
template <bool kAccumulate>
inline void weighted_rows(const float* w, const float* r0, std::int64_t ldr, std::int64_t d,
                          std::int64_t jn, float* out) {
  std::int64_t p = 0;
  for (; p + 8 <= d; p += 8) {
    __m256 acc = kAccumulate ? _mm256_loadu_ps(out + p) : _mm256_setzero_ps();
    for (std::int64_t j = 0; j < jn; ++j) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(w + j), _mm256_loadu_ps(r0 + j * ldr + p), acc);
    }
    _mm256_storeu_ps(out + p, acc);
  }
  for (; p < d; ++p) {
    float a = kAccumulate ? out[p] : 0.0f;
    for (std::int64_t j = 0; j < jn; ++j) a += w[j] * r0[j * ldr + p];
    out[p] = a;
  }
}

// Head dims with d % 8 == 0 and d <= 32 (4 ymm) run the online-softmax
// recurrence entirely in registers: one sweep over 8-key blocks per query
// row, block-granular rescale of the in-register accumulator. This is the
// same recurrence the scalar backend runs per chunk, applied at 8-key
// granularity. Blocks are counted from key 0 of the chunk.
constexpr std::int64_t kMaxRegD = 32;

// Query rows per register tile. A tile sweeps its rows' common full 8-key
// blocks together: each k/v row is loaded once for all of them, and the
// rows' independent max/exp/accumulate chains overlap in the pipeline. The
// arithmetic of each row is exactly the single-row sweep's (see
// online_row_reg), so a row's result does not depend on its tile. The tile
// loops carry `#pragma GCC unroll`: at -O2 GCC keeps them rolled, which
// leaves the per-row scores and accumulators in memory, not in registers.
constexpr int kTileRows = 4;

// Raises a row's running max to the block max bm when bm exceeds it,
// rescaling the accumulator and the running sum to the new max.
inline void raise_max(float bm, __m256 accv[4], std::int64_t nb, float& m_run, float& l_run) {
  // Rescale only when this block actually raises the running max. For a
  // long key sweep the max stabilises quickly, so the scalar std::exp —
  // the one transcendental the vector path can't batch — drops out of
  // the steady state entirely.
  if (bm > m_run) {
    const float rescale = (l_run > 0.0f) ? std::exp(m_run - bm) : 0.0f;
    if (rescale != 1.0f) {
      const __m256 rs = _mm256_set1_ps(rescale);
      for (std::int64_t b = 0; b < nb; ++b) accv[b] = _mm256_mul_ps(accv[b], rs);
    }
    l_run *= rescale;
    m_run = bm;
  }
}

// Max of the first jb lanes as a left fold of std::max: lane 0 first, so a
// NaN in lane 0 wins and a NaN in a later lane is skipped.
inline float fold_max(const float* s, std::int64_t jb) {
  float bm = s[0];
  for (std::int64_t t = 1; t < jb; ++t) bm = std::max(bm, s[t]);
  return bm;
}

// One query row's sweep over jn keys, block by block.
inline void online_row_reg(const float* qrow, const float* kh, const float* vh, std::int64_t ldk,
                           std::int64_t d, float sc, std::int64_t jn, __m256 accv[4], float& m_run,
                           float& l_run) {
  alignas(32) float sbuf[8];
  alignas(32) float wbuf[8];
  const std::int64_t nb = d / 8;
  for (std::int64_t j0 = 0; j0 < jn; j0 += 8) {
    const std::int64_t jb = std::min<std::int64_t>(8, jn - j0);
    const float* kb = kh + j0 * ldk;
    const float* vb = vh + j0 * ldk;
    if (jb == 8) {
      dot8(qrow, kb, ldk, d, sc, sbuf);
    } else {
      for (std::int64_t t = 0; t < jb; ++t) sbuf[t] = dot(qrow, kb + t * ldk, d) * sc;
      // Pad with -inf: exp8 turns the dead lanes into exact zero weight.
      for (std::int64_t t = jb; t < 8; ++t) sbuf[t] = kNegInf;
    }
    raise_max(fold_max(sbuf, jb), accv, nb, m_run, l_run);
    const __m256 w8 = exp8(_mm256_sub_ps(_mm256_load_ps(sbuf), _mm256_set1_ps(m_run)));
    _mm256_store_ps(wbuf, w8);
    const float bsum = hsum8(w8);
    for (std::int64_t t = 0; t < jb; ++t) {
      const __m256 wt = _mm256_broadcast_ss(wbuf + t);
      for (std::int64_t b = 0; b < nb; ++b) {
        accv[b] = _mm256_fmadd_ps(wt, _mm256_loadu_ps(vb + t * ldk + b * 8), accv[b]);
      }
    }
    l_run += bsum;
  }
}

// <q, k_t> for the 8 keys of a block as one vector, with dot8's FMA order
// and reduction tree, for a head dim of NB ymm.
template <int NB>
inline __m256 dot8_reg(const float* q, const float* kb, std::int64_t ldk) {
  __m256 acc[8];
#pragma GCC unroll 8
  for (int t = 0; t < 8; ++t) acc[t] = _mm256_setzero_ps();
#pragma GCC unroll 8
  for (int b = 0; b < NB; ++b) {
    const __m256 qv = _mm256_loadu_ps(q + b * 8);
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) {
      acc[t] = _mm256_fmadd_ps(qv, _mm256_loadu_ps(kb + t * ldk + b * 8), acc[t]);
    }
  }
  return hsum8x8(acc);
}

// Scaled scores of a block, kept apart from what consumes them. With FMA
// enabled GCC contracts a product into a following add or sub, rounding
// once where the single-row kernels (whose scores pass through memory)
// round twice; the empty asm makes the product opaque to that rewrite.
inline __m256 scaled(__m256 raw, __m256 vsc) {
  __m256 s = _mm256_mul_ps(raw, vsc);
  asm("" : "+x"(s));
  return s;
}

// Sweeps kTileRows query rows of one head over their first jn[r] keys.
// Row r's query is q + r * ldq, its accumulator acc + r * ldq (updated in
// place), and its running max and sum m[r * ldm] and l[r * ldm]. The rows'
// common full blocks go through the tile; each row then finishes its own
// remaining blocks in online_row_reg.
template <int NB>
void online_tile_reg(const float* q, float* acc, std::int64_t ldq, float* m, float* l,
                     std::int64_t ldm, const float* kh, const float* vh, std::int64_t ldk,
                     float sc, const std::int64_t jn[kTileRows]) {
  std::int64_t common = jn[0];
  for (int r = 1; r < kTileRows; ++r) common = std::min(common, jn[r]);
  common -= common % 8;
  // Locals, so the accumulators can live in registers across the sweep.
  __m256 accv[kTileRows][NB];
  float m_run[kTileRows];
  float l_run[kTileRows];
  for (int r = 0; r < kTileRows; ++r) {
    for (int b = 0; b < NB; ++b) accv[r][b] = _mm256_loadu_ps(acc + r * ldq + b * 8);
    m_run[r] = m[r * ldm];
    l_run[r] = l[r * ldm];
  }
  alignas(32) float wbuf[kTileRows][8];
  const __m256 vsc = _mm256_set1_ps(sc);
  for (std::int64_t j0 = 0; j0 < common; j0 += 8) {
    const float* kb = kh + j0 * ldk;
    const float* vb = vh + j0 * ldk;
    __m256 s[kTileRows];
    int raised = 0;
#pragma GCC unroll 4
    for (int r = 0; r < kTileRows; ++r) {
      s[r] = scaled(dot8_reg<NB>(q + r * ldq, kb, ldk), vsc);
      // The fold's max exceeds m only if some lane does (a NaN lane never
      // does), so the exact fold runs only for blocks that may raise it.
      raised |= _mm256_movemask_ps(_mm256_cmp_ps(s[r], _mm256_set1_ps(m_run[r]), _CMP_GT_OQ));
    }
    if (raised != 0) {
      for (int r = 0; r < kTileRows; ++r) {
        _mm256_store_ps(wbuf[r], s[r]);
        raise_max(fold_max(wbuf[r], 8), accv[r], NB, m_run[r], l_run[r]);
      }
    }
    float bsum[kTileRows];
#pragma GCC unroll 4
    for (int r = 0; r < kTileRows; ++r) {
      const __m256 w8 = exp8(_mm256_sub_ps(s[r], _mm256_set1_ps(m_run[r])));
      _mm256_store_ps(wbuf[r], w8);
      bsum[r] = hsum8(w8);
    }
#pragma GCC unroll 8
    for (int t = 0; t < 8; ++t) {
#pragma GCC unroll 4
      for (int b = 0; b < NB; ++b) {
        const __m256 vt = _mm256_loadu_ps(vb + t * ldk + b * 8);
#pragma GCC unroll 4
        for (int r = 0; r < kTileRows; ++r) {
          accv[r][b] = _mm256_fmadd_ps(_mm256_broadcast_ss(wbuf[r] + t), vt, accv[r][b]);
        }
      }
    }
    for (int r = 0; r < kTileRows; ++r) l_run[r] += bsum[r];
  }
  for (int r = 0; r < kTileRows; ++r) {
    online_row_reg(q + r * ldq, kh + common * ldk, vh + common * ldk, ldk, NB * 8, sc,
                   jn[r] - common, accv[r], m_run[r], l_run[r]);
    for (int b = 0; b < NB; ++b) _mm256_storeu_ps(acc + r * ldq + b * 8, accv[r][b]);
    m[r * ldm] = m_run[r];
    l[r * ldm] = l_run[r];
  }
}

// Calls f(std::integral_constant<int, NB>) for a register-path head dim d,
// NB = d / 8 in 1..4.
template <typename F>
inline void with_nb(std::int64_t d, const F& f) {
  switch (d / 8) {
    case 1:
      return f(std::integral_constant<int, 1>{});
    case 2:
      return f(std::integral_constant<int, 2>{});
    case 3:
      return f(std::integral_constant<int, 3>{});
    default:
      return f(std::integral_constant<int, 4>{});
  }
}

// In-place w[j] = exp(w[j] - m) over jn scores; returns sum of the results.
inline float exp_sub_sum(float* w, std::int64_t jn, float m) {
  const __m256 vm = _mm256_set1_ps(m);
  __m256 vz = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 8 <= jn; j += 8) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(w + j), vm));
    _mm256_storeu_ps(w + j, e);
    vz = _mm256_add_ps(vz, e);
  }
  float z = hsum8(vz);
  for (; j < jn; ++j) {
    w[j] = std::exp(w[j] - m);
    z += w[j];
  }
  return z;
}

inline void scale(float* a, float s, std::int64_t d) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t p = 0;
  for (; p + 8 <= d; p += 8) {
    _mm256_storeu_ps(a + p, _mm256_mul_ps(vs, _mm256_loadu_ps(a + p)));
  }
  for (; p < d; ++p) a[p] *= s;
}

// ---- NN micro-kernels: C[rows,16] += A[rows,kc] · B[kc,16] ---------------

// 4×16 register tile: 8 accumulators, 2 B loads + 4 broadcasts + 8 FMA per
// k iteration; B rows are reused across the 4 A rows.
inline void nn_micro_4x16(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                          float* c, std::int64_t ldc, std::int64_t kc) {
  __m256 c00 = _mm256_loadu_ps(c);
  __m256 c01 = _mm256_loadu_ps(c + 8);
  __m256 c10 = _mm256_loadu_ps(c + ldc);
  __m256 c11 = _mm256_loadu_ps(c + ldc + 8);
  __m256 c20 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 c30 = _mm256_loadu_ps(c + 3 * ldc);
  __m256 c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    __m256 av = _mm256_set1_ps(a[p]);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_set1_ps(a[lda + p]);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_set1_ps(a[2 * lda + p]);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_set1_ps(a[3 * lda + p]);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
  }
  _mm256_storeu_ps(c, c00);
  _mm256_storeu_ps(c + 8, c01);
  _mm256_storeu_ps(c + ldc, c10);
  _mm256_storeu_ps(c + ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20);
  _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30);
  _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

inline void nn_micro_1x16(const float* a, const float* b, std::int64_t ldb, float* c,
                          std::int64_t kc) {
  __m256 c0 = _mm256_loadu_ps(c);
  __m256 c1 = _mm256_loadu_ps(c + 8);
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 av = _mm256_set1_ps(a[p]);
    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * ldb), c0);
    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * ldb + 8), c1);
  }
  _mm256_storeu_ps(c, c0);
  _mm256_storeu_ps(c + 8, c1);
}

}  // namespace

void gemm_nn_acc(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                 std::int64_t n) {
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    const std::int64_t kc = std::min<std::int64_t>(kKc, k - pc);
    const float* ab = a + pc;      // A[:, pc:pc+kc], row stride k
    const float* bb = b + pc * n;  // B[pc:pc+kc, :], row stride n
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      std::int64_t i = 0;
      for (; i + 4 <= m; i += 4) {
        nn_micro_4x16(ab + i * k, k, bb + j, n, c + i * n + j, n, kc);
      }
      for (; i < m; ++i) {
        nn_micro_1x16(ab + i * k, bb + j, n, c + i * n + j, kc);
      }
    }
    if (j < n) {
      // Column tail (< 16 wide): plain rank-1 updates on the remainder.
      for (std::int64_t i = 0; i < m; ++i) {
        const float* a_row = ab + i * k;
        float* c_row = c + i * n;
        for (std::int64_t p = 0; p < kc; ++p) {
          const float av = a_row[p];
          const float* b_row = bb + p * n;
          for (std::int64_t jt = j; jt < n; ++jt) c_row[jt] += av * b_row[jt];
        }
      }
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n) {
  // Dot-product form: both operands stream contiguously over k. 1 row × 4
  // columns of B per tile so the A row's loads amortise across 4 dots.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      std::int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const __m256 va = _mm256_loadu_ps(a_row + p);
        acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + p), acc0);
        acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1 + p), acc1);
        acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2 + p), acc2);
        acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3 + p), acc3);
      }
      float s0 = hsum8(acc0);
      float s1 = hsum8(acc1);
      float s2 = hsum8(acc2);
      float s3 = hsum8(acc3);
      for (; p < k; ++p) {
        const float av = a_row[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      float* c_row = c + i * n + j;
      c_row[0] = s0;
      c_row[1] = s1;
      c_row[2] = s2;
      c_row[3] = s3;
    }
    for (; j < n; ++j) c[i * n + j] = dot(a_row, b + j * k, k);
  }
}

void gemm_tn_acc(const float* a, const float* b, float* c, std::int64_t k, std::int64_t m,
                 std::int64_t n) {
  // Rank-1 updates blocked 4-deep in k so each C row is loaded/stored once
  // per 4 accumulated outer products.
  std::int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const float* a0 = a + p * m;
    const float* a1 = a0 + m;
    const float* a2 = a1 + m;
    const float* a3 = a2 + m;
    const float* b0 = b + p * n;
    const float* b1 = b0 + n;
    const float* b2 = b1 + n;
    const float* b3 = b2 + n;
    for (std::int64_t i = 0; i < m; ++i) {
      const __m256 av0 = _mm256_set1_ps(a0[i]);
      const __m256 av1 = _mm256_set1_ps(a1[i]);
      const __m256 av2 = _mm256_set1_ps(a2[i]);
      const __m256 av3 = _mm256_set1_ps(a3[i]);
      float* c_row = c + i * n;
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256 acc = _mm256_loadu_ps(c_row + j);
        acc = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b0 + j), acc);
        acc = _mm256_fmadd_ps(av1, _mm256_loadu_ps(b1 + j), acc);
        acc = _mm256_fmadd_ps(av2, _mm256_loadu_ps(b2 + j), acc);
        acc = _mm256_fmadd_ps(av3, _mm256_loadu_ps(b3 + j), acc);
        _mm256_storeu_ps(c_row + j, acc);
      }
      for (; j < n; ++j) {
        c_row[j] += a0[i] * b0[j] + a1[i] * b1[j] + a2[i] * b2[j] + a3[i] * b3[j];
      }
    }
  }
  for (; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      axpy(a_row[i], b_row, c + i * n, n);
    }
  }
}

void attn_forward(const float* q, const float* k, const float* v, float* out, float* lse,
                  const AttnDims& dm, bool causal, std::int64_t q_pos0, std::int64_t k_pos0) {
  const float sc = 1.0f / std::sqrt(static_cast<float>(dm.d));
  const std::int64_t ldk = dm.hk * dm.d;
  const std::int64_t ldq = dm.h * dm.d;
  const bool reg = dm.d % 8 == 0 && dm.d <= kMaxRegD;
  std::vector<float> scores(static_cast<std::size_t>(reg ? 0 : dm.sk));
  // Normalises a register-path output row holding its accumulator. A row
  // that sees no key is the identity element: zeros, lse = -inf.
  const auto finish = [&](std::int64_t row, std::int64_t jn, float m, float z) {
    float* orow = out + row * dm.d;
    if (jn == 0) {
      std::fill(orow, orow + dm.d, 0.0f);
      lse[row] = kNegInf;
      return;
    }
    const __m256 inv = _mm256_set1_ps(1.0f / z);
    for (std::int64_t p = 0; p < dm.d; p += 8) {
      _mm256_storeu_ps(orow + p, _mm256_mul_ps(_mm256_loadu_ps(orow + p), inv));
    }
    lse[row] = m + std::log(z);
  };
  for (std::int64_t hd = 0; hd < dm.h; ++hd) {
    const std::int64_t kv_head = hd / dm.group;
    const float* kh = k + kv_head * dm.d;
    const float* vh = v + kv_head * dm.d;
    std::int64_t i = 0;
    for (; reg && i + kTileRows <= dm.sq; i += kTileRows) {
      const std::int64_t row = i * dm.h + hd;
      std::int64_t jn[kTileRows];
      float m[kTileRows];
      float z[kTileRows];
      for (int r = 0; r < kTileRows; ++r) {
        std::fill_n(out + (row + r * dm.h) * dm.d, dm.d, 0.0f);
        jn[r] = causal_bound(causal, q_pos0 + i + r, k_pos0, dm.sk);
        m[r] = kNegInf;
        z[r] = 0.0f;
      }
      with_nb(dm.d, [&](auto nb) {
        online_tile_reg<decltype(nb)::value>(q + row * dm.d, out + row * dm.d, ldq, m, z, 1, kh,
                                             vh, ldk, sc, jn);
      });
      for (int r = 0; r < kTileRows; ++r) finish(row + r * dm.h, jn[r], m[r], z[r]);
    }
    for (; i < dm.sq; ++i) {
      const float* qrow = q + (i * dm.h + hd) * dm.d;
      float* orow = out + (i * dm.h + hd) * dm.d;
      const std::int64_t jn = causal_bound(causal, q_pos0 + i, k_pos0, dm.sk);
      if (reg) {
        __m256 accv[4];
        const std::int64_t nb = dm.d / 8;
        for (std::int64_t b = 0; b < nb; ++b) accv[b] = _mm256_setzero_ps();
        float m = kNegInf;
        float z = 0.0f;
        online_row_reg(qrow, kh, vh, ldk, dm.d, sc, jn, accv, m, z);
        for (std::int64_t b = 0; b < nb; ++b) _mm256_storeu_ps(orow + b * 8, accv[b]);
        finish(i * dm.h + hd, jn, m, z);
        continue;
      }
      if (jn == 0) {
        std::fill(orow, orow + dm.d, 0.0f);
        lse[i * dm.h + hd] = kNegInf;
        continue;
      }
      score_row(qrow, kh, ldk, dm.d, sc, scores.data(), jn);
      const float m = max_of(scores.data(), jn);
      const float z = exp_sub_sum(scores.data(), jn, m);
      scale(scores.data(), 1.0f / z, jn);
      weighted_rows<false>(scores.data(), vh, ldk, dm.d, jn, orow);
      lse[i * dm.h + hd] = m + std::log(z);
    }
  }
}

void online_attn_step(float* acc, float* row_max, float* row_sum, const float* q, const float* k,
                      const float* v, const AttnDims& dm, bool causal, std::int64_t q_pos0,
                      std::int64_t k_pos0) {
  const float sc = 1.0f / std::sqrt(static_cast<float>(dm.d));
  const std::int64_t ldk = dm.hk * dm.d;
  const std::int64_t ldq = dm.h * dm.d;
  const bool reg = dm.d % 8 == 0 && dm.d <= kMaxRegD;
  std::vector<float> scores(static_cast<std::size_t>(reg ? 0 : dm.sk));
  for (std::int64_t hd = 0; hd < dm.h; ++hd) {
    const std::int64_t kv_head = hd / dm.group;
    const float* kh = k + kv_head * dm.d;
    const float* vh = v + kv_head * dm.d;
    std::int64_t i = 0;
    // A row that sees no key keeps its state: its sweep is empty.
    for (; reg && i + kTileRows <= dm.sq; i += kTileRows) {
      const std::int64_t row = i * dm.h + hd;
      std::int64_t jn[kTileRows];
      for (int r = 0; r < kTileRows; ++r) {
        jn[r] = causal_bound(causal, q_pos0 + i + r, k_pos0, dm.sk);
      }
      with_nb(dm.d, [&](auto nb) {
        online_tile_reg<decltype(nb)::value>(q + row * dm.d, acc + row * dm.d, ldq,
                                             row_max + row, row_sum + row, dm.h, kh, vh, ldk,
                                             sc, jn);
      });
    }
    for (; i < dm.sq; ++i) {
      const float* qrow = q + (i * dm.h + hd) * dm.d;
      const std::int64_t jn = causal_bound(causal, q_pos0 + i, k_pos0, dm.sk);
      if (jn == 0) continue;
      float& m_run = row_max[i * dm.h + hd];
      float& l_run = row_sum[i * dm.h + hd];
      float* arow = acc + (i * dm.h + hd) * dm.d;
      if (reg) {
        __m256 accv[4];
        const std::int64_t nb = dm.d / 8;
        for (std::int64_t b = 0; b < nb; ++b) accv[b] = _mm256_loadu_ps(arow + b * 8);
        online_row_reg(qrow, kh, vh, ldk, dm.d, sc, jn, accv, m_run, l_run);
        for (std::int64_t b = 0; b < nb; ++b) _mm256_storeu_ps(arow + b * 8, accv[b]);
        continue;
      }
      score_row(qrow, kh, ldk, dm.d, sc, scores.data(), jn);
      const float block_max = max_of(scores.data(), jn);
      const float m_new = std::max(m_run, block_max);
      const float rescale = (l_run > 0.0f) ? std::exp(m_run - m_new) : 0.0f;
      if (rescale != 1.0f) scale(arow, rescale, dm.d);
      const float block_sum = exp_sub_sum(scores.data(), jn, m_new);
      weighted_rows<true>(scores.data(), vh, ldk, dm.d, jn, arow);
      l_run = l_run * rescale + block_sum;
      m_run = m_new;
    }
  }
}

namespace {

// Unlike the forward pass there is no row-max recurrence in the backward —
// lse is saved state — so every key is independent and the whole backward
// fuses into ONE sweep over 8-key blocks: scores, probabilities, dq/dk/dv
// all touch each k/v row while it is still hot in L1, instead of four
// separate L2-bound sweeps over the chunk per query row.
struct BackwardRow {
  const float* q;
  const float* dout;
  float lse;
  float D;
  float* dq;
};

// One query row's backward over keys [j_begin, jn), j_begin a multiple of 8.
void backward_row(const BackwardRow& row, const float* kh, const float* vh, float* dkh,
                  float* dvh, std::int64_t ldk, std::int64_t d, float sc, std::int64_t j_begin,
                  std::int64_t jn) {
  alignas(32) float sbuf[8];
  alignas(32) float prb[8];
  alignas(32) float dsb[8];
  const float* qrow = row.q;
  const float* grow = row.dout;
  float* dqrow = row.dq;
  for (std::int64_t j0 = j_begin; j0 < jn; j0 += 8) {
    const std::int64_t jb = std::min<std::int64_t>(8, jn - j0);
    const float* kb = kh + j0 * ldk;
    const float* vb = vh + j0 * ldk;
    if (jb == 8) {
      dot8(qrow, kb, ldk, d, sc, sbuf);   // s_t   = <q, k_t> * sc
      dot8(grow, vb, ldk, d, 1.0f, dsb);  // dp_t  = <dout, v_t>
      const __m256 pr = exp8(_mm256_sub_ps(_mm256_load_ps(sbuf), _mm256_set1_ps(row.lse)));
      _mm256_store_ps(prb, pr);
      const __m256 ds8 = _mm256_mul_ps(
          _mm256_mul_ps(pr, _mm256_sub_ps(_mm256_load_ps(dsb), _mm256_set1_ps(row.D))),
          _mm256_set1_ps(sc));
      _mm256_store_ps(dsb, ds8);
    } else {
      for (std::int64_t t = 0; t < jb; ++t) {
        const float s = dot(qrow, kb + t * ldk, d) * sc;
        prb[t] = std::exp(s - row.lse);
        dsb[t] = prb[t] * (dot(grow, vb + t * ldk, d) - row.D) * sc;
      }
    }
    // dq_i += ds_t k_t; dv_t += prob_t dout_i; dk_t += ds_t q_i — the
    // k rows are still in L1 from the score dots above.
    std::int64_t p = 0;
    for (; p + 8 <= d; p += 8) {
      const __m256 g8 = _mm256_loadu_ps(grow + p);
      const __m256 q8 = _mm256_loadu_ps(qrow + p);
      __m256 dqa = _mm256_loadu_ps(dqrow + p);
      for (std::int64_t t = 0; t < jb; ++t) {
        const __m256 dst = _mm256_broadcast_ss(dsb + t);
        dqa = _mm256_fmadd_ps(dst, _mm256_loadu_ps(kb + t * ldk + p), dqa);
        float* dvp = dvh + (j0 + t) * ldk + p;
        float* dkp = dkh + (j0 + t) * ldk + p;
        _mm256_storeu_ps(dvp,
                         _mm256_fmadd_ps(_mm256_broadcast_ss(prb + t), g8, _mm256_loadu_ps(dvp)));
        _mm256_storeu_ps(dkp, _mm256_fmadd_ps(dst, q8, _mm256_loadu_ps(dkp)));
      }
      _mm256_storeu_ps(dqrow + p, dqa);
    }
    for (; p < d; ++p) {
      float a = dqrow[p];
      for (std::int64_t t = 0; t < jb; ++t) {
        a += dsb[t] * kb[t * ldk + p];
        dvh[(j0 + t) * ldk + p] += prb[t] * grow[p];
        dkh[(j0 + t) * ldk + p] += dsb[t] * qrow[p];
      }
      dqrow[p] = a;
    }
  }
}

// A tile of kTileRows consecutive query rows over their common full
// blocks, then each row's own remaining blocks in backward_row. Per block,
// every row's p and ds come from backward_row's arithmetic. Then, one
// 8-float column slice at a time, each dk/dv row is loaded once, takes the
// tile rows' FMAs in ascending row order (the order the single-row sweep
// applies them) and is stored once; dq takes its keys in ascending order.
template <int NB>
void backward_tile_reg(const BackwardRow rows[kTileRows], const std::int64_t jn[kTileRows],
                       const float* kh, const float* vh, float* dkh, float* dvh,
                       std::int64_t ldk, float sc) {
  std::int64_t common = jn[0];
  for (int r = 1; r < kTileRows; ++r) common = std::min(common, jn[r]);
  common -= common % 8;
  alignas(32) float prb[kTileRows][8];
  alignas(32) float dsb[kTileRows][8];
  const __m256 vsc = _mm256_set1_ps(sc);
  for (std::int64_t j0 = 0; j0 < common; j0 += 8) {
    const float* kb = kh + j0 * ldk;
    const float* vb = vh + j0 * ldk;
#pragma GCC unroll 4
    for (int r = 0; r < kTileRows; ++r) {
      const __m256 s = scaled(dot8_reg<NB>(rows[r].q, kb, ldk), vsc);
      const __m256 dp = dot8_reg<NB>(rows[r].dout, vb, ldk);
      const __m256 pr = exp8(_mm256_sub_ps(s, _mm256_set1_ps(rows[r].lse)));
      _mm256_store_ps(prb[r], pr);
      _mm256_store_ps(dsb[r], _mm256_mul_ps(
                                  _mm256_mul_ps(pr, _mm256_sub_ps(dp, _mm256_set1_ps(rows[r].D))),
                                  vsc));
    }
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
      __m256 q8[kTileRows], g8[kTileRows], dqa[kTileRows];
#pragma GCC unroll 4
      for (int r = 0; r < kTileRows; ++r) {
        q8[r] = _mm256_loadu_ps(rows[r].q + b * 8);
        g8[r] = _mm256_loadu_ps(rows[r].dout + b * 8);
        dqa[r] = _mm256_loadu_ps(rows[r].dq + b * 8);
      }
#pragma GCC unroll 8
      for (int t = 0; t < 8; ++t) {
        const __m256 kt = _mm256_loadu_ps(kb + t * ldk + b * 8);
        float* dvp = dvh + (j0 + t) * ldk + b * 8;
        float* dkp = dkh + (j0 + t) * ldk + b * 8;
        __m256 dva = _mm256_loadu_ps(dvp);
        __m256 dka = _mm256_loadu_ps(dkp);
#pragma GCC unroll 4
        for (int r = 0; r < kTileRows; ++r) {
          const __m256 dst = _mm256_broadcast_ss(dsb[r] + t);
          dqa[r] = _mm256_fmadd_ps(dst, kt, dqa[r]);
          dva = _mm256_fmadd_ps(_mm256_broadcast_ss(prb[r] + t), g8[r], dva);
          dka = _mm256_fmadd_ps(dst, q8[r], dka);
        }
        _mm256_storeu_ps(dvp, dva);
        _mm256_storeu_ps(dkp, dka);
      }
#pragma GCC unroll 4
      for (int r = 0; r < kTileRows; ++r) _mm256_storeu_ps(rows[r].dq + b * 8, dqa[r]);
    }
  }
  for (int r = 0; r < kTileRows; ++r) {
    backward_row(rows[r], kh, vh, dkh, dvh, ldk, NB * 8, sc, common, jn[r]);
  }
}

}  // namespace

void online_attn_backward_step(const float* q, const float* k, const float* v, const float* dout,
                               const float* lse, const float* D, const AttnDims& dm, bool causal,
                               std::int64_t q_pos0, std::int64_t k_pos0, float* dq, float* dk,
                               float* dv) {
  const float sc = 1.0f / std::sqrt(static_cast<float>(dm.d));
  const std::int64_t ldk = dm.hk * dm.d;
  const bool reg = dm.d % 8 == 0 && dm.d <= kMaxRegD;
  const auto row_of = [&](std::int64_t i, std::int64_t hd) {
    const std::int64_t row = i * dm.h + hd;
    return BackwardRow{q + row * dm.d, dout + row * dm.d, lse[row], D[row], dq + row * dm.d};
  };
  for (std::int64_t hd = 0; hd < dm.h; ++hd) {
    const std::int64_t kv_head = hd / dm.group;
    const float* kh = k + kv_head * dm.d;
    const float* vh = v + kv_head * dm.d;
    float* dkh = dk + kv_head * dm.d;
    float* dvh = dv + kv_head * dm.d;
    std::int64_t i = 0;
    for (; reg && i + kTileRows <= dm.sq; i += kTileRows) {
      BackwardRow rows[kTileRows];
      std::int64_t jn[kTileRows];
      for (int r = 0; r < kTileRows; ++r) {
        rows[r] = row_of(i + r, hd);
        jn[r] = causal_bound(causal, q_pos0 + i + r, k_pos0, dm.sk);
      }
      with_nb(dm.d, [&](auto nb) {
        backward_tile_reg<decltype(nb)::value>(rows, jn, kh, vh, dkh, dvh, ldk, sc);
      });
    }
    for (; i < dm.sq; ++i) {
      backward_row(row_of(i, hd), kh, vh, dkh, dvh, ldk, dm.d, sc, 0,
                   causal_bound(causal, q_pos0 + i, k_pos0, dm.sk));
    }
  }
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    __m256 vm = _mm256_set1_ps(kNegInf);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) vm = _mm256_max_ps(vm, _mm256_loadu_ps(row + j));
    float m = (j > 0) ? [&] {
      __m128 s = _mm_max_ps(_mm256_castps256_ps128(vm), _mm256_extractf128_ps(vm, 1));
      s = _mm_max_ps(s, _mm_movehl_ps(s, s));
      s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
      return _mm_cvtss_f32(s);
    }()
                      : row[0];
    for (; j < cols; ++j) m = std::max(m, row[j]);
    const float z = exp_sub_sum(row, cols, m);
    scale(row, 1.0f / z, cols);
  }
}

// ---- Activations & norms ---------------------------------------------------

namespace {

// tanh/sigmoid in terms of exp8 so the saturating ends are exact:
// exp8(-inf) = +0, so tanh8 → ±1 and sigmoid8 → 0/1 instead of NaN.
inline __m256 tanh8(__m256 y) {
  // tanh(y) = 1 - 2 / (exp(2y) + 1)
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e2y = exp8(_mm256_add_ps(y, y));
  return _mm256_sub_ps(one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e2y, one)));
}

inline __m256 sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 enx = exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, enx));
}

constexpr float kGeluK = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluC = 0.044715f;

inline __m256 gelu_inner8(__m256 v) {
  const __m256 v3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
  return _mm256_mul_ps(_mm256_set1_ps(kGeluK), _mm256_fmadd_ps(_mm256_set1_ps(kGeluC), v3, v));
}

}  // namespace

void gelu_forward(const float* x, float* y, std::int64_t n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 t = tanh8(gelu_inner8(v));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  for (; i < n; ++i) y[i] = gelu_scalar(x[i]);
}

void gelu_backward_mul(const float* x, float* dx, std::int64_t n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 k = _mm256_set1_ps(kGeluK);
  const __m256 c3 = _mm256_set1_ps(3.0f * kGeluC);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 t = tanh8(gelu_inner8(v));
    const __m256 sech2 = _mm256_fnmadd_ps(t, t, one);  // 1 - t^2
    const __m256 dinner = _mm256_mul_ps(k, _mm256_fmadd_ps(c3, _mm256_mul_ps(v, v), one));
    const __m256 grad =
        _mm256_mul_ps(half, _mm256_fmadd_ps(_mm256_mul_ps(v, sech2), dinner,
                                            _mm256_add_ps(one, t)));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dx + i), grad));
  }
  for (; i < n; ++i) dx[i] *= gelu_grad_scalar(x[i]);
}

void silu_forward(const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, sigmoid8(v)));
  }
  for (; i < n; ++i) y[i] = silu_scalar(x[i]);
}

void silu_backward_mul(const float* x, float* dx, std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 s = sigmoid8(v);
    // s * (1 + v * (1 - s))
    const __m256 grad = _mm256_mul_ps(s, _mm256_fmadd_ps(v, _mm256_sub_ps(one, s), one));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dx + i), grad));
  }
  for (; i < n; ++i) dx[i] *= silu_grad_scalar(x[i]);
}

void layernorm_forward(const float* x, const float* gamma, const float* beta, float* y,
                       float* mean, float* rstd, std::int64_t rows, std::int64_t n, float eps) {
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    __m256 vs = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) vs = _mm256_add_ps(vs, _mm256_loadu_ps(row + j));
    float mu = hsum8(vs);
    for (; j < n; ++j) mu += row[j];
    mu *= inv_n;
    const __m256 vmu = _mm256_set1_ps(mu);
    __m256 vv = _mm256_setzero_ps();
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(row + j), vmu);
      vv = _mm256_fmadd_ps(d, d, vv);
    }
    float var = hsum8(vv);
    for (; j < n; ++j) {
      const float d = row[j] - mu;
      var += d * d;
    }
    var *= inv_n;
    const float rs = 1.0f / std::sqrt(var + eps);
    mean[r] = mu;
    rstd[r] = rs;
    const __m256 vrs = _mm256_set1_ps(rs);
    float* out = y + r * n;
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + j), vmu), vrs);
      _mm256_storeu_ps(out + j,
                       _mm256_fmadd_ps(xh, _mm256_loadu_ps(gamma + j), _mm256_loadu_ps(beta + j)));
    }
    for (; j < n; ++j) out[j] = (row[j] - mu) * rs * gamma[j] + beta[j];
  }
}

void layernorm_backward(const float* x, const float* dy, const float* gamma, const float* mean,
                        const float* rstd, float* dx, float* dgamma, float* dbeta,
                        std::int64_t rows, std::int64_t n) {
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float mu = mean[r];
    const float rs = rstd[r];
    const float* xr = x + r * n;
    const float* dyr = dy + r * n;
    float* dxr = dx + r * n;
    const __m256 vmu = _mm256_set1_ps(mu);
    const __m256 vrs = _mm256_set1_ps(rs);
    __m256 v1 = _mm256_setzero_ps();
    __m256 v2 = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr + j), vmu), vrs);
      const __m256 dyv = _mm256_loadu_ps(dyr + j);
      const __m256 dxh = _mm256_mul_ps(dyv, _mm256_loadu_ps(gamma + j));
      v1 = _mm256_add_ps(v1, dxh);
      v2 = _mm256_fmadd_ps(dxh, xh, v2);
      _mm256_storeu_ps(dgamma + j, _mm256_fmadd_ps(dyv, xh, _mm256_loadu_ps(dgamma + j)));
      _mm256_storeu_ps(dbeta + j, _mm256_add_ps(_mm256_loadu_ps(dbeta + j), dyv));
    }
    float sum_dxhat = hsum8(v1);
    float sum_dxhat_xhat = hsum8(v2);
    for (; j < n; ++j) {
      const float xhat = (xr[j] - mu) * rs;
      const float dxhat = dyr[j] * gamma[j];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat;
      dgamma[j] += dyr[j] * xhat;
      dbeta[j] += dyr[j];
    }
    const __m256 c1 = _mm256_set1_ps(inv_n * sum_dxhat);
    const __m256 c2 = _mm256_set1_ps(inv_n * sum_dxhat_xhat);
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr + j), vmu), vrs);
      const __m256 dxh = _mm256_mul_ps(_mm256_loadu_ps(dyr + j), _mm256_loadu_ps(gamma + j));
      const __m256 t = _mm256_fnmadd_ps(xh, c2, _mm256_sub_ps(dxh, c1));
      _mm256_storeu_ps(dxr + j, _mm256_mul_ps(vrs, t));
    }
    for (; j < n; ++j) {
      const float xhat = (xr[j] - mu) * rs;
      const float dxhat = dyr[j] * gamma[j];
      dxr[j] = rs * (dxhat - inv_n * sum_dxhat - xhat * inv_n * sum_dxhat_xhat);
    }
  }
}

void rmsnorm_forward(const float* x, const float* gamma, float* y, float* rstd, std::int64_t rows,
                     std::int64_t n, float eps) {
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    __m256 vs = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      vs = _mm256_fmadd_ps(v, v, vs);
    }
    float ms = hsum8(vs);
    for (; j < n; ++j) ms += row[j] * row[j];
    ms *= inv_n;
    const float rs = 1.0f / std::sqrt(ms + eps);
    rstd[r] = rs;
    const __m256 vrs = _mm256_set1_ps(rs);
    float* out = y + r * n;
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(row + j), vrs);
      _mm256_storeu_ps(out + j, _mm256_mul_ps(v, _mm256_loadu_ps(gamma + j)));
    }
    for (; j < n; ++j) out[j] = row[j] * rs * gamma[j];
  }
}

void rmsnorm_backward(const float* x, const float* dy, const float* gamma, const float* rstd,
                      float* dx, float* dgamma, std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float rs = rstd[r];
    const float* xr = x + r * n;
    const float* dyr = dy + r * n;
    float* dxr = dx + r * n;
    const __m256 vrs = _mm256_set1_ps(rs);
    __m256 vsum = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 dyv = _mm256_loadu_ps(dyr + j);
      const __m256 xv = _mm256_loadu_ps(xr + j);
      const __m256 dg = _mm256_mul_ps(dyv, _mm256_loadu_ps(gamma + j));
      vsum = _mm256_fmadd_ps(dg, xv, vsum);
      _mm256_storeu_ps(dgamma + j,
                       _mm256_fmadd_ps(_mm256_mul_ps(dyv, xv), vrs, _mm256_loadu_ps(dgamma + j)));
    }
    float sum_dg_x = hsum8(vsum);
    for (; j < n; ++j) {
      sum_dg_x += dyr[j] * gamma[j] * xr[j];
      dgamma[j] += dyr[j] * xr[j] * rs;
    }
    const float kf = sum_dg_x * rs * rs * rs / static_cast<float>(n);
    const __m256 vkf = _mm256_set1_ps(kf);
    j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 dg =
          _mm256_mul_ps(_mm256_loadu_ps(dyr + j), _mm256_loadu_ps(gamma + j));
      const __m256 t = _mm256_fnmadd_ps(_mm256_loadu_ps(xr + j), vkf, _mm256_mul_ps(dg, vrs));
      _mm256_storeu_ps(dxr + j, t);
    }
    for (; j < n; ++j) dxr[j] = dyr[j] * gamma[j] * rs - xr[j] * kf;
  }
}

}  // namespace fpdt::kernels::avx2

#endif  // FPDT_KERNEL_AVX2
