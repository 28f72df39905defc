// ShardedOptimizer — Adam with ZeRO-partitioned state.
//
// Stage 0 delegates to the reference nn::Adam (replicated moments — the
// conformance oracle). Stages 1–3 run the paper-cited ZeRO step
// (Rajbhandari et al., 2020, §5):
//
//   1. reduce-scatter   each parameter's gradient, padded to P equal flat
//                       shards, goes through comm::ProcessGroup so rank r
//                       receives exactly its owned slice (traced, faultable);
//   2. local Adam       rank r applies the elementwise update — the same
//                       arithmetic as nn::Adam::step, same order — to its
//                       fp32 moment shard and weight shard only, as one
//                       parallel_for_ranks body (shards are disjoint);
//   3. all-gather       stages 1/2 re-replicate the updated weights through
//                       a real all-gather; stage 3 keeps the 1/P weight
//                       shards and lets ZeroEngine::gather_group
//                       re-materialize each layer at its next use.
//
// Because grads are exact slices (reduce-scatter of [g, 0, ..., 0] sums to g
// bitwise up to -0 → +0, which Adam's arithmetic cannot distinguish) and
// Adam is elementwise, the concatenated shard updates are bit-identical to
// the replicated update — tests/test_zero.cpp holds every stage to that.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fpdt_env.h"
#include "nn/adam.h"
#include "nn/param.h"
#include "parallel/zero/zero_config.h"

namespace fpdt::zero {

// Per-parameter, per-rank flat moment shards: shards[name][r].m/.v are
// [ceil(numel/P)] tensors (the same alias checkpoint I/O round-trips).
using ShardedAdamState = std::map<std::string, std::vector<nn::Adam::Moments>>;

class ShardedOptimizer {
 public:
  ShardedOptimizer(core::FpdtEnv& env, ZeroConfig cfg, double lr = 1e-3,
                   double beta1 = 0.9, double beta2 = 0.95, double eps = 1e-8,
                   double weight_decay = 0.0);

  // Re-binds the optimizer to a rebuilt trainer's env (its collectives);
  // moments, shards and the step count carry over.
  void rebind(core::FpdtEnv& env) { env_ = &env; }

  int stage() const { return cfg_.stage; }
  double lr() const { return stage() >= 1 ? lr_ : reference_.lr(); }
  void set_lr(double lr);

  std::int64_t step_count() const { return stage() >= 1 ? t_ : reference_.step_count(); }
  void set_step_count(std::int64_t t);

  // One optimizer update over every parameter the walker visits; zeroes the
  // gradients, exactly like nn::Adam::step.
  void step(const std::function<void(const nn::ParamVisitor&)>& walk);

  // Stage-0 replicated state (checkpointed via the existing unsharded path).
  nn::Adam& reference() { return reference_; }

  // Stage >= 1 sharded state, for checkpoint I/O and bitwise-restore tests.
  const ShardedAdamState& shards() const { return shards_; }
  ShardedAdamState& mutable_shards() { return shards_; }
  void set_shards(ShardedAdamState shards) { shards_ = std::move(shards); }

  // Zero-initialized moment shards for `p`, created exactly as step() would
  // on first touch — so save/restore of a never-stepped optimizer is
  // bit-identical to stepping from scratch.
  std::vector<nn::Adam::Moments>& ensure_shards(const nn::Param& p);

 private:
  void sharded_step(const std::function<void(const nn::ParamVisitor&)>& walk);

  core::FpdtEnv* env_;
  ZeroConfig cfg_;
  double lr_, beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  ShardedAdamState shards_;
  nn::Adam reference_;  // stage-0 delegate
};

}  // namespace fpdt::zero
