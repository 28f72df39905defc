#include "parallel/zero/sharded_optimizer.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace fpdt::zero {

ShardedOptimizer::ShardedOptimizer(core::FpdtEnv& env, ZeroConfig cfg, double lr,
                                   double beta1, double beta2, double eps,
                                   double weight_decay)
    : env_(&env),
      cfg_(cfg),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      reference_(lr, beta1, beta2, eps, weight_decay) {
  FPDT_CHECK(cfg_.stage >= 0 && cfg_.stage <= 3)
      << " invalid ZeRO stage " << cfg_.stage;
}

void ShardedOptimizer::set_lr(double lr) {
  lr_ = lr;
  reference_.set_lr(lr);
}

void ShardedOptimizer::set_step_count(std::int64_t t) {
  t_ = t;
  reference_.set_step_count(t);
}

std::vector<nn::Adam::Moments>& ShardedOptimizer::ensure_shards(const nn::Param& p) {
  const int world = env_->world();
  auto [it, inserted] = shards_.try_emplace(p.name);
  if (inserted) {
    const std::int64_t s = shard_elems(p.value.numel(), world);
    it->second.resize(static_cast<std::size_t>(world));
    for (auto& mom : it->second) {
      mom.m = Tensor::zeros({s});
      mom.v = Tensor::zeros({s});
    }
  }
  return it->second;
}

void ShardedOptimizer::step(const std::function<void(const nn::ParamVisitor&)>& walk) {
  if (cfg_.stage < 1) {
    reference_.step(walk);
    return;
  }
  sharded_step(walk);
}

void ShardedOptimizer::sharded_step(
    const std::function<void(const nn::ParamVisitor&)>& walk) {
  FPDT_TRACE_SCOPE(obs::kCatPhase, "optimizer");
  const int world = env_->world();
  comm::ProcessGroup& pg = env_->pg();
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);

  walk([&](nn::Param& p) {
    const std::int64_t n = p.value.numel();
    const std::int64_t s = shard_elems(n, world);

    // Pad grad and weight to P equal flat shards; the tail pad is zeros, so
    // its moments stay zero and its weight updates are discarded below.
    Tensor flat_g({s * world});
    std::memcpy(flat_g.data(), p.grad.data(), static_cast<std::size_t>(n) * sizeof(float));
    Tensor flat_w({s * world});
    std::memcpy(flat_w.data(), p.value.data(), static_cast<std::size_t>(n) * sizeof(float));

    // reduce-scatter([g, 0, ..., 0]) — the sum is g bitwise (up to -0 → +0,
    // invisible to Adam's arithmetic), and rank r receives exactly its
    // owned slice through the traced, fault-injectable collective.
    std::vector<Tensor> contrib(static_cast<std::size_t>(world));
    contrib[0] = flat_g;
    for (int r = 1; r < world; ++r) {
      contrib[static_cast<std::size_t>(r)] = Tensor::zeros({s * world});
    }
    const std::vector<Tensor> grad_shards = pg.reduce_scatter(contrib);

    std::vector<nn::Adam::Moments>& mom = ensure_shards(p);
    FPDT_CHECK_EQ(mom[0].m.numel(), s)
        << " stale shard geometry for " << p.name << " (world changed?)";
    parallel_for_ranks(world, [&](int r) {
      // Rank r's local Adam on its owned shard — arithmetic and evaluation
      // order identical to nn::Adam::step. Shards are disjoint, so the
      // rank bodies run concurrently (common/thread_pool.h).
      float* w = flat_w.data() + r * s;
      const float* g = grad_shards[static_cast<std::size_t>(r)].data();
      float* m = mom[static_cast<std::size_t>(r)].m.data();
      float* v = mom[static_cast<std::size_t>(r)].v.data();
      for (std::int64_t i = 0; i < s; ++i) {
        m[i] = b1 * m[i] + (1.0f - b1) * g[i];
        v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
        const double mhat = static_cast<double>(m[i]) / bc1;
        const double vhat = static_cast<double>(v[i]) / bc2;
        w[i] -= static_cast<float>(lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                                          weight_decay_ * static_cast<double>(w[i])));
      }
    });

    if (cfg_.stage < 3 && world > 1) {
      // Re-replicate the updated weights through a real all-gather: each
      // rank contributes its updated shard, and the full parameter is
      // written back from the received buffer.
      std::vector<Tensor> updated(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        updated[static_cast<std::size_t>(r)] = flat_w.slice0(r * s, (r + 1) * s);
      }
      const std::vector<Tensor> full = pg.all_gather(updated);
      std::memcpy(p.value.data(), full[0].data(),
                  static_cast<std::size_t>(n) * sizeof(float));
    } else {
      // Stage 3 (or single rank): the updated shards are the resident
      // representation; ZeroEngine::gather_group re-materializes full
      // layers at their next use.
      std::memcpy(p.value.data(), flat_w.data(),
                  static_cast<std::size_t>(n) * sizeof(float));
    }
    p.grad.zero_();
  });
}

}  // namespace fpdt::zero
