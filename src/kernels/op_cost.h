// Analytic per-call work formulas for the kernels::Backend op families.
//
// Each function computes the FLOP and ideal-byte cost of one dispatch from
// its *shapes only* — never from what a backend executes — so "scalar" and
// "simd" are charged bit-identical integer work for the same call sequence
// (the CI gate in ci/bench_smoke.sh pins this). The registry's metering
// decorator (registry.cpp) calls these and charges obs::Workmeter.
//
// Conventions:
//   * FLOPs: one multiply-add = 2 FLOPs (the Megatron/MFU convention, so a
//     GEMM is 2·m·k·n). Transcendentals (exp/tanh/rsqrt) count as the
//     nominal per-element constants below, not as hardware instruction
//     counts — they exist so elementwise ops register on the roofline at
//     all; GEMM/attention dominate every real step.
//   * Bytes: ideal traffic — each operand array touched once (read or
//     write; accumulated outputs count read+write), float32 = 4 bytes.
//     This is the numerator of achieved-GB/s and the denominator of
//     arithmetic intensity, i.e. a compulsory-traffic lower bound, not a
//     cache-simulation.
//   * Masked attention work is excluded via causal_bound(), matching what
//     the kernels skip and what sim/cost_model.h prices — an MFU of 1.0
//     means "ran at the speed the virtual hardware charges for the
//     unmasked pairs", also for causal steps.
//
// All arithmetic is exact int64. The largest *executed* shapes in this repo
// are emulated single-host steps (≪ 2^40 FLOPs per call); model-scale
// *analytic* projections (obs/bench.h) accumulate in double instead.
#pragma once

#include <algorithm>
#include <cstdint>

#include "kernels/backend.h"
#include "obs/workmeter.h"

namespace fpdt::kernels {

// Nominal per-element FLOP constants for non-GEMM math (documented in
// DESIGN.md §13; shared by forward and backward counts).
inline constexpr std::int64_t kSoftmaxFlopsPerElem = 5;   // max, sub, exp, sum, div
inline constexpr std::int64_t kExpFlops = 1;              // one transcendental = 1 nominal FLOP
inline constexpr std::int64_t kLayerNormFwdFlopsPerElem = 8;
inline constexpr std::int64_t kLayerNormBwdFlopsPerElem = 12;
inline constexpr std::int64_t kRmsNormFwdFlopsPerElem = 6;
inline constexpr std::int64_t kRmsNormBwdFlopsPerElem = 10;
inline constexpr std::int64_t kGeluFwdFlopsPerElem = 14;  // tanh polynomial form
inline constexpr std::int64_t kGeluBwdFlopsPerElem = 20;
inline constexpr std::int64_t kSiluFwdFlopsPerElem = 5;   // sigmoid + mul
inline constexpr std::int64_t kSiluBwdFlopsPerElem = 8;

// ---- GEMM family -----------------------------------------------------------

// Shared core: 2·m·k·n FLOPs; A, B read once, C written (+read when the op
// accumulates into it).
inline obs::OpWork gemm_cost(std::int64_t m, std::int64_t k, std::int64_t n, bool acc) {
  obs::OpWork w;
  w.flops = 2 * m * k * n;
  w.bytes = 4 * (m * k + k * n + (acc ? 2 : 1) * m * n);
  return w;
}

inline obs::OpWork gemm_nn_acc_cost(std::int64_t m, std::int64_t k, std::int64_t n) {
  return gemm_cost(m, k, n, /*acc=*/true);
}
inline obs::OpWork gemm_nt_cost(std::int64_t m, std::int64_t k, std::int64_t n) {
  return gemm_cost(m, k, n, /*acc=*/false);
}
inline obs::OpWork gemm_tn_acc_cost(std::int64_t k, std::int64_t m, std::int64_t n) {
  return gemm_cost(m, k, n, /*acc=*/true);
}

// ---- Attention -------------------------------------------------------------

// Unmasked (query, key) pairs of one attention call, per query head: the
// exact sum over rows of causal_bound(), i.e. precisely the pairs every
// backend computes, in closed form. Row r's bound is clamp(b0 + r, 0, sk)
// with b0 = q_pos0 - k_pos0 + 1, so the rows split into a masked prefix
// (bound 0), an arithmetic ramp (bound b0 + r < sk) and a full tail
// (bound sk). O(1), so the simulator can price paper-scale chunk pairs.
inline std::int64_t attn_unmasked_pairs(const AttnDims& dm, bool causal, std::int64_t q_pos0,
                                        std::int64_t k_pos0) {
  if (!causal) return dm.sq * dm.sk;
  const std::int64_t b0 = q_pos0 - k_pos0 + 1;
  const std::int64_t begin = std::clamp<std::int64_t>(1 - b0, 0, dm.sq);   // first bound >= 1
  const std::int64_t end = std::clamp<std::int64_t>(dm.sk - b0, begin, dm.sq);  // first >= sk
  // Σ_{r in [begin, end)} (b0 + r), halving whichever factor is even.
  const std::int64_t n = end - begin;
  const std::int64_t first_plus_last = 2 * b0 + begin + end - 1;
  const std::int64_t ramp = n % 2 == 0 ? n / 2 * first_plus_last : first_plus_last / 2 * n;
  return ramp + (dm.sq - end) * dm.sk;
}

// Materialised forward: per unmasked pair per head, QKᵀ (2d) + softmax
// (kSoftmaxFlopsPerElem) + PV (2d). Bytes: q/out/lse at [sq,h,·], k/v at
// [sk,hk,d].
inline obs::OpWork attn_forward_cost(const AttnDims& dm, bool causal, std::int64_t q_pos0,
                                     std::int64_t k_pos0) {
  const std::int64_t pairs = attn_unmasked_pairs(dm, causal, q_pos0, k_pos0);
  obs::OpWork w;
  w.flops = dm.h * pairs * (4 * dm.d + kSoftmaxFlopsPerElem);
  w.bytes = 4 * (dm.sq * dm.h * dm.d      // q read
                 + 2 * dm.sk * dm.hk * dm.d  // k, v read
                 + dm.sq * dm.h * dm.d       // out written
                 + dm.sq * dm.h);            // lse written
  return w;
}

// Online-softmax chunk step: the forward pair work plus the running-state
// rescale — per (row, head): new-max compare/rescale of l and of the d-wide
// acc row (2d + 4).
inline obs::OpWork online_attn_step_cost(const AttnDims& dm, bool causal, std::int64_t q_pos0,
                                         std::int64_t k_pos0) {
  const std::int64_t pairs = attn_unmasked_pairs(dm, causal, q_pos0, k_pos0);
  obs::OpWork w;
  w.flops = dm.h * pairs * (4 * dm.d + kSoftmaxFlopsPerElem) + dm.sq * dm.h * (2 * dm.d + 4);
  w.bytes = 4 * (dm.sq * dm.h * dm.d          // q read
                 + 2 * dm.sk * dm.hk * dm.d   // k, v read
                 + 2 * dm.sq * dm.h * dm.d    // acc read+write
                 + 4 * dm.sq * dm.h);         // m, l read+write
  return w;
}

// Backward chunk step: per unmasked pair per head — recompute scores (2d),
// p = exp(s - lse) (kExpFlops), dv += pᵀ·dout (2d), dp = dout·vᵀ (2d),
// ds = p·(dp - D) (3), dq += ds·k and dk += dsᵀ·q (2d each), ≈ 10d + 4.
inline obs::OpWork online_attn_backward_step_cost(const AttnDims& dm, bool causal,
                                                  std::int64_t q_pos0, std::int64_t k_pos0) {
  const std::int64_t pairs = attn_unmasked_pairs(dm, causal, q_pos0, k_pos0);
  obs::OpWork w;
  w.flops = dm.h * pairs * (10 * dm.d + kExpFlops + 3);
  w.bytes = 4 * (2 * dm.sq * dm.h * dm.d      // q, dout read
                 + 2 * dm.sk * dm.hk * dm.d   // k, v read
                 + 2 * dm.sq * dm.h           // lse, D read
                 + 2 * dm.sq * dm.h * dm.d    // dq read+write
                 + 4 * dm.sk * dm.hk * dm.d); // dk, dv read+write
  return w;
}

// ---- Rowwise reductions ----------------------------------------------------

inline obs::OpWork softmax_rows_cost(std::int64_t rows, std::int64_t cols) {
  obs::OpWork w;
  w.flops = rows * cols * kSoftmaxFlopsPerElem;
  w.bytes = 4 * 2 * rows * cols;  // in place: read + write
  return w;
}

inline obs::OpWork layernorm_forward_cost(std::int64_t rows, std::int64_t n) {
  obs::OpWork w;
  w.flops = rows * n * kLayerNormFwdFlopsPerElem;
  w.bytes = 4 * (2 * rows * n + 2 * n + 2 * rows);  // x,y + gamma,beta + mean,rstd
  return w;
}

inline obs::OpWork layernorm_backward_cost(std::int64_t rows, std::int64_t n) {
  obs::OpWork w;
  w.flops = rows * n * kLayerNormBwdFlopsPerElem;
  w.bytes = 4 * (3 * rows * n + 3 * n + 2 * rows);  // x,dy,dx + gamma,dgamma,dbeta + mean,rstd
  return w;
}

inline obs::OpWork rmsnorm_forward_cost(std::int64_t rows, std::int64_t n) {
  obs::OpWork w;
  w.flops = rows * n * kRmsNormFwdFlopsPerElem;
  w.bytes = 4 * (2 * rows * n + n + rows);  // x,y + gamma + rstd
  return w;
}

inline obs::OpWork rmsnorm_backward_cost(std::int64_t rows, std::int64_t n) {
  obs::OpWork w;
  w.flops = rows * n * kRmsNormBwdFlopsPerElem;
  w.bytes = 4 * (3 * rows * n + 2 * n + rows);  // x,dy,dx + gamma,dgamma + rstd
  return w;
}

// ---- Pointwise activations -------------------------------------------------

inline obs::OpWork activation_forward_cost(std::int64_t n, std::int64_t flops_per_elem) {
  obs::OpWork w;
  w.flops = n * flops_per_elem;
  w.bytes = 4 * 2 * n;  // read x, write y
  return w;
}

inline obs::OpWork activation_backward_cost(std::int64_t n, std::int64_t flops_per_elem) {
  obs::OpWork w;
  w.flops = n * flops_per_elem;
  w.bytes = 4 * 3 * n;  // read x, read dx (pre-filled dy), write dx
  return w;
}

}  // namespace fpdt::kernels
