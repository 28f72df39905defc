// ZeroEngine — executable ZeRO-1/2/3 model-state residency for the emulated
// sequence-parallel group.
//
// The trainers borrow one shared nn::Model, so the *data* for every rank's
// param/grad/optimizer shard already lives in process memory; what ZeRO
// changes is which bytes are resident in each rank's HBM and which bytes
// move through collectives. The engine makes both executable:
//
//   residency   on attach it charges every rank's MemoryPool with exactly
//               the model-state bytes that stage keeps resident (params,
//               grads, optimizer shards — the same accounting rules as
//               perfmodel::estimate_memory, which tests/test_zero.cpp uses
//               as a differential oracle). OOM and peak tracking therefore
//               see model state, not just activations.
//   ZeRO-3      gather_group() routes a real all-gather of the parameter
//               shards through comm::ProcessGroup (obs::Tracer records the
//               bytes, fault::FaultInjector can hit it), writes the result
//               back into the parameter tensors, charges the gathered
//               working buffer on every rank for the duration of the
//               layer's use (the group prices the all-gather on each rank's
//               virtual timeline). release_group() drops the buffer.
//   ZeRO-2/3    charge_grad_bucket() models the transient full-gradient
//               bucket a layer materializes during backward before the
//               reduce-scatter frees it to the owning rank's shard.
//
// GroupScope is the RAII form trainers wrap around each phase: gather on
// entry, release (+ bucket release) on exit, exception-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/fpdt_env.h"
#include "nn/model.h"
#include "parallel/zero/zero_config.h"
#include "runtime/memory_pool.h"

namespace fpdt::zero {

// Walks one parameter group (a layer, the embedding, the loss head).
using ParamWalk = std::function<void(const nn::ParamVisitor&)>;

// Measured model-state bytes resident on one rank.
struct ResidentBytes {
  std::int64_t params = 0;
  std::int64_t grads = 0;
  std::int64_t optimizer = 0;
  std::int64_t total() const { return params + grads + optimizer; }
};

class ZeroEngine {
 public:
  // Charges every rank's HBM pool with the stage's resident model state.
  // Throws OutOfMemoryError where a real run would fail to place the shards.
  ZeroEngine(nn::Model& model, core::FpdtEnv& env, ZeroConfig cfg);
  ~ZeroEngine();

  ZeroEngine(const ZeroEngine&) = delete;
  ZeroEngine& operator=(const ZeroEngine&) = delete;

  const ZeroConfig& cfg() const { return cfg_; }
  int world() const;
  core::FpdtEnv& env() { return *env_; }

  // Measured residency charged against rank r's HBM pool right now
  // (persistent shards only; gathered buffers and grad buckets are reported
  // by the pool's used/peak counters).
  ResidentBytes resident(int rank) const;

  // ---- ZeRO-3 per-layer parameter gather (stage < 3: no-op) --------------
  // `key` names the group ("block3", "embed", "head"); `walk` visits its
  // params. Gathering twice under the same key is an error (missing
  // release).
  void gather_group(const std::string& key, const ParamWalk& walk);
  void release_group(const std::string& key);

  // ---- ZeRO-2/3 transient gradient bucket (stage < 2: no-op) -------------
  void charge_grad_bucket(const std::string& key, const ParamWalk& walk);
  void release_grad_bucket(const std::string& key);

 private:
  std::int64_t group_elems(const ParamWalk& walk) const;

  nn::Model* model_;
  core::FpdtEnv* env_;
  ZeroConfig cfg_;

  // Persistent residency, one allocation per rank per component.
  std::vector<runtime::Allocation> params_resident_;
  std::vector<runtime::Allocation> grads_resident_;
  std::vector<runtime::Allocation> optim_resident_;

  // In-flight gathered layers / grad buckets, keyed by group.
  std::map<std::string, std::vector<runtime::Allocation>> gathered_;
  std::map<std::string, std::vector<runtime::Allocation>> buckets_;
};

// RAII window for one group's execution: gathers params on entry (stage 3),
// optionally charges the backward grad bucket (stage >= 2), releases both on
// exit. Below those stages the engine calls are no-ops, so trainers wrap
// every phase unconditionally.
class GroupScope {
 public:
  GroupScope(ZeroEngine& engine, std::string key, const ParamWalk& walk, bool grad_bucket)
      : engine_(engine), key_(std::move(key)), bucket_(grad_bucket) {
    engine_.gather_group(key_, walk);
    if (bucket_) engine_.charge_grad_bucket(key_, walk);
  }
  ~GroupScope() {
    if (bucket_) engine_.release_grad_bucket(key_);
    engine_.release_group(key_);
  }

  GroupScope(const GroupScope&) = delete;
  GroupScope& operator=(const GroupScope&) = delete;

 private:
  ZeroEngine& engine_;
  std::string key_;
  bool bucket_;
};

}  // namespace fpdt::zero
