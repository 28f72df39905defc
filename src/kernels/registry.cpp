#include "kernels/backend.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "kernels/op_cost.h"
#include "obs/workmeter.h"

namespace fpdt::kernels {

std::unique_ptr<Backend> make_scalar_backend();  // scalar_backend.cpp
std::unique_ptr<Backend> make_simd_backend();    // simd_backend.cpp

namespace {

// Work-accounting decorator wrapped around every registered backend: each
// dispatch charges its analytic shape cost (kernels/op_cost.h) to the
// thread's obs::WorkSink (pricing the rank's virtual clock) and to
// obs::Workmeter, then forwards to the real backend. Because the charge is
// computed from shapes — and both built-in backends are wrapped by the same
// decorator at registration — scalar and simd report bit-identical work for
// the same call sequence by construction (SimdBackend's scalar fallback is
// a private instance, not a registry round-trip, so nothing double-counts).
// Unobserved, each op pays a thread-local load, one relaxed atomic load and
// a predicted-not-taken branch, nothing else.
class MeteredBackend final : public Backend {
 public:
  explicit MeteredBackend(std::unique_ptr<Backend> inner) : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }

  void gemm_nn_acc(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
                   std::int64_t n) const override {
    charge(obs::OpKind::kGemm, [&] { return gemm_nn_acc_cost(m, k, n); });
    inner_->gemm_nn_acc(a, b, c, m, k, n);
  }

  void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
               std::int64_t n) const override {
    charge(obs::OpKind::kGemm, [&] { return gemm_nt_cost(m, k, n); });
    inner_->gemm_nt(a, b, c, m, k, n);
  }

  void gemm_tn_acc(const float* a, const float* b, float* c, std::int64_t k, std::int64_t m,
                   std::int64_t n) const override {
    charge(obs::OpKind::kGemm, [&] { return gemm_tn_acc_cost(k, m, n); });
    inner_->gemm_tn_acc(a, b, c, k, m, n);
  }

  void attn_forward(const float* q, const float* k, const float* v, float* out, float* lse,
                    const AttnDims& dm, bool causal, std::int64_t q_pos0,
                    std::int64_t k_pos0) const override {
    charge(obs::OpKind::kAttention, [&] { return attn_forward_cost(dm, causal, q_pos0, k_pos0); });
    inner_->attn_forward(q, k, v, out, lse, dm, causal, q_pos0, k_pos0);
  }

  void online_attn_step(float* acc, float* row_max, float* row_sum, const float* q,
                        const float* k, const float* v, const AttnDims& dm, bool causal,
                        std::int64_t q_pos0, std::int64_t k_pos0) const override {
    charge(obs::OpKind::kAttention, [&] { return online_attn_step_cost(dm, causal, q_pos0, k_pos0); });
    inner_->online_attn_step(acc, row_max, row_sum, q, k, v, dm, causal, q_pos0, k_pos0);
  }

  void online_attn_backward_step(const float* q, const float* k, const float* v,
                                 const float* dout, const float* lse, const float* D,
                                 const AttnDims& dm, bool causal, std::int64_t q_pos0,
                                 std::int64_t k_pos0, float* dq, float* dk,
                                 float* dv) const override {
    charge(obs::OpKind::kAttention, [&] { return online_attn_backward_step_cost(dm, causal, q_pos0, k_pos0); });
    inner_->online_attn_backward_step(q, k, v, dout, lse, D, dm, causal, q_pos0, k_pos0, dq, dk,
                                      dv);
  }

  void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) const override {
    charge(obs::OpKind::kSoftmax, [&] { return softmax_rows_cost(rows, cols); });
    inner_->softmax_rows(x, rows, cols);
  }

  void layernorm_forward(const float* x, const float* gamma, const float* beta, float* y,
                         float* mean, float* rstd, std::int64_t rows, std::int64_t n,
                         float eps) const override {
    charge(obs::OpKind::kNorm, [&] { return layernorm_forward_cost(rows, n); });
    inner_->layernorm_forward(x, gamma, beta, y, mean, rstd, rows, n, eps);
  }

  void layernorm_backward(const float* x, const float* dy, const float* gamma, const float* mean,
                          const float* rstd, float* dx, float* dgamma, float* dbeta,
                          std::int64_t rows, std::int64_t n) const override {
    charge(obs::OpKind::kNorm, [&] { return layernorm_backward_cost(rows, n); });
    inner_->layernorm_backward(x, dy, gamma, mean, rstd, dx, dgamma, dbeta, rows, n);
  }

  void rmsnorm_forward(const float* x, const float* gamma, float* y, float* rstd,
                       std::int64_t rows, std::int64_t n, float eps) const override {
    charge(obs::OpKind::kNorm, [&] { return rmsnorm_forward_cost(rows, n); });
    inner_->rmsnorm_forward(x, gamma, y, rstd, rows, n, eps);
  }

  void rmsnorm_backward(const float* x, const float* dy, const float* gamma, const float* rstd,
                        float* dx, float* dgamma, std::int64_t rows,
                        std::int64_t n) const override {
    charge(obs::OpKind::kNorm, [&] { return rmsnorm_backward_cost(rows, n); });
    inner_->rmsnorm_backward(x, dy, gamma, rstd, dx, dgamma, rows, n);
  }

  void gelu_forward(const float* x, float* y, std::int64_t n) const override {
    charge(obs::OpKind::kActivation, [&] { return activation_forward_cost(n, kGeluFwdFlopsPerElem); });
    inner_->gelu_forward(x, y, n);
  }

  void gelu_backward_mul(const float* x, float* dx, std::int64_t n) const override {
    charge(obs::OpKind::kActivation, [&] { return activation_backward_cost(n, kGeluBwdFlopsPerElem); });
    inner_->gelu_backward_mul(x, dx, n);
  }

  void silu_forward(const float* x, float* y, std::int64_t n) const override {
    charge(obs::OpKind::kActivation, [&] { return activation_forward_cost(n, kSiluFwdFlopsPerElem); });
    inner_->silu_forward(x, y, n);
  }

  void silu_backward_mul(const float* x, float* dx, std::int64_t n) const override {
    charge(obs::OpKind::kActivation, [&] { return activation_backward_cost(n, kSiluBwdFlopsPerElem); });
    inner_->silu_backward_mul(x, dx, n);
  }

 private:
  // The cost callable is only evaluated when someone listens, so an
  // unobserved call never runs the (O(sq) for attention) shape arithmetic.
  template <typename CostFn>
  static void charge(obs::OpKind kind, CostFn&& cost) {
    obs::WorkSink* sink = obs::t_work_sink;
    const bool metered = obs::work_metering_enabled();
    if (sink == nullptr && !metered) return;
    const obs::OpWork work = cost();
    if (sink != nullptr) sink->kind[static_cast<int>(kind)] += work;
    if (metered) obs::Workmeter::instance().charge(kind, work);
  }

  std::unique_ptr<Backend> inner_;
};

struct Registry {
  std::vector<std::unique_ptr<Backend>> backends;  // registration order
  std::atomic<const Backend*> active{nullptr};

  Registry() {
    backends.push_back(std::make_unique<MeteredBackend>(make_scalar_backend()));
    backends.push_back(std::make_unique<MeteredBackend>(make_simd_backend()));
    const char* env = std::getenv("FPDT_KERNEL_BACKEND");
    const std::string want = (env != nullptr && env[0] != '\0') ? env : "scalar";
    active.store(find(want), std::memory_order_release);
  }

  const Backend* find(const std::string& name) const {
    for (const auto& b : backends) {
      if (name == b->name()) return b.get();
    }
    std::string known;
    for (const auto& b : backends) {
      if (!known.empty()) known += ", ";
      known += b->name();
    }
    throw FpdtError("unknown kernel backend: " + name + " (registered: " + known + ")");
  }
};

Registry& registry() {
  static Registry r;  // constructed on first use; env var read exactly once
  return r;
}

}  // namespace

const Backend& active() { return *registry().active.load(std::memory_order_acquire); }

std::string active_name() { return active().name(); }

const Backend& backend(const std::string& name) { return *registry().find(name); }

void set_active(const std::string& name) {
  Registry& r = registry();
  r.active.store(r.find(name), std::memory_order_release);
}

std::vector<std::string> available() {
  std::vector<std::string> names;
  for (const auto& b : registry().backends) names.emplace_back(b->name());
  return names;
}

}  // namespace fpdt::kernels
