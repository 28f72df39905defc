#include "parallel/zero/zero_engine.h"

#include <cstring>

#include "common/check.h"
#include "tensor/tensor.h"

namespace fpdt::zero {

namespace {

// Collects the parameters a group walk visits. The engine is called from the
// orchestration thread (outside parallel_for_ranks), so holding raw Param
// pointers for the duration of one gather/charge call is safe.
std::vector<nn::Param*> collect(const ParamWalk& walk) {
  std::vector<nn::Param*> params;
  walk([&](nn::Param& p) { params.push_back(&p); });
  return params;
}

std::int64_t sum_numel(const std::vector<nn::Param*>& params) {
  std::int64_t n = 0;
  for (const nn::Param* p : params) n += p->value.numel();
  return n;
}

}  // namespace

ZeroEngine::ZeroEngine(nn::Model& model, core::FpdtEnv& env, ZeroConfig cfg)
    : model_(&model), env_(&env), cfg_(cfg) {
  FPDT_CHECK(cfg_.stage >= 0 && cfg_.stage <= 3)
      << " ZeRO stage " << cfg_.stage << " is outside 0..3";
  const int world = env_->world();
  // Shards are ceil(numel / P) per parameter: the analytic model divides
  // exactly, and the difference is the padding bound tests tolerate.
  std::int64_t total_elems = 0;
  std::int64_t total_shard_elems = 0;
  model_->visit_params([&](nn::Param& p) {
    total_elems += p.value.numel();
    total_shard_elems += shard_elems(p.value.numel(), world);
  });

  // Persistent residency per the stage's partitioning rules (the same rules
  // perfmodel::estimate_memory applies analytically):
  //   params     full 2N below stage 3, 2 * sum ceil(n/P) at stage 3
  //   grads      full 2N below stage 2, sharded at stage >= 2
  //   optimizer  full 12N at stage 0, sharded at stage >= 1
  const std::int64_t param_elems = cfg_.stage >= 3 ? total_shard_elems : total_elems;
  const std::int64_t grad_elems = cfg_.stage >= 2 ? total_shard_elems : total_elems;
  const std::int64_t optim_elems = cfg_.stage >= 1 ? total_shard_elems : total_elems;
  params_resident_.reserve(static_cast<std::size_t>(world));
  grads_resident_.reserve(static_cast<std::size_t>(world));
  optim_resident_.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    runtime::MemoryPool& hbm = env_->device(r).hbm();
    params_resident_.emplace_back(&hbm, param_elems * kParamBytesPerElem);
    grads_resident_.emplace_back(&hbm, grad_elems * kGradBytesPerElem);
    optim_resident_.emplace_back(&hbm, optim_elems * kOptimBytesPerElem);
  }
}

ZeroEngine::~ZeroEngine() = default;

int ZeroEngine::world() const { return env_->world(); }

ResidentBytes ZeroEngine::resident(int rank) const {
  FPDT_CHECK(rank >= 0 && rank < static_cast<int>(params_resident_.size()))
      << " rank " << rank << " out of range";
  const auto i = static_cast<std::size_t>(rank);
  return {params_resident_[i].bytes(), grads_resident_[i].bytes(),
          optim_resident_[i].bytes()};
}

std::int64_t ZeroEngine::group_elems(const ParamWalk& walk) const {
  return sum_numel(collect(walk));
}

void ZeroEngine::gather_group(const std::string& key, const ParamWalk& walk) {
  if (cfg_.stage < 3) return;
  FPDT_CHECK(gathered_.find(key) == gathered_.end())
      << " group '" << key << "' gathered twice (missing release_group)";

  const std::vector<nn::Param*> params = collect(walk);
  const std::int64_t elems = sum_numel(params);
  const int world = env_->world();

  // Charge the gathered working buffer (the full group's BF16 params) on
  // every rank *before* moving data — where a real allocator would OOM.
  std::vector<runtime::Allocation>& charges = gathered_[key];
  charges.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    charges.emplace_back(&env_->device(r).hbm(), elems * kParamBytesPerElem);
  }

  if (world > 1) {
    // Real data round-trip: each rank contributes its shard slices of every
    // parameter in the group, the group all-gathers them, and the full
    // values are written back from the received buffer. Bitwise a no-op on
    // a healthy link, but a corrupted collective *would* corrupt params —
    // which is exactly what the fault tests need to be able to observe.
    std::vector<Tensor> flats;  // padded flat copy per param
    flats.reserve(params.size());
    std::vector<std::int64_t> shard_sizes(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      const std::int64_t n = params[i]->value.numel();
      const std::int64_t s = shard_elems(n, world);
      shard_sizes[i] = s;
      Tensor flat({s * world});
      std::memcpy(flat.data(), params[i]->value.data(),
                  static_cast<std::size_t>(n) * sizeof(float));
      flats.push_back(std::move(flat));
    }
    std::vector<Tensor> local(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) {
      std::vector<Tensor> shards;
      shards.reserve(params.size());
      for (std::size_t i = 0; i < params.size(); ++i) {
        shards.push_back(flats[i].slice0(r * shard_sizes[i], (r + 1) * shard_sizes[i]));
      }
      local[static_cast<std::size_t>(r)] = concat0(shards);
    }
    const std::vector<Tensor> full = env_->pg().all_gather(local);
    // full[rank] = concat of every rank's group-shard in rank order; unpack
    // rank r's segment back into each parameter's [r*s, r*s+s) range.
    const Tensor& recv = full[0];
    const std::int64_t group_shard = local[0].numel();
    for (int r = 0; r < world; ++r) {
      std::int64_t off = r * group_shard;
      for (std::size_t i = 0; i < params.size(); ++i) {
        const std::int64_t n = params[i]->value.numel();
        const std::int64_t s = shard_sizes[i];
        const std::int64_t lo = r * s;
        const std::int64_t len = std::min(s, n - lo);
        if (len > 0) {
          std::memcpy(params[i]->value.data() + lo, recv.data() + off,
                      static_cast<std::size_t>(len) * sizeof(float));
        }
        off += s;
      }
    }
  }
}

void ZeroEngine::release_group(const std::string& key) {
  if (cfg_.stage < 3) return;
  auto it = gathered_.find(key);
  FPDT_CHECK(it != gathered_.end()) << " release of ungathered group '" << key << "'";
  gathered_.erase(it);  // Allocation dtors discharge every rank's buffer
}

void ZeroEngine::charge_grad_bucket(const std::string& key, const ParamWalk& walk) {
  if (cfg_.stage < 2) return;
  FPDT_CHECK(buckets_.find(key) == buckets_.end())
      << " grad bucket '" << key << "' charged twice";
  const std::int64_t elems = group_elems(walk);
  std::vector<runtime::Allocation>& charges = buckets_[key];
  const int world = env_->world();
  charges.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    charges.emplace_back(&env_->device(r).hbm(), elems * kGradBytesPerElem);
  }
}

void ZeroEngine::release_grad_bucket(const std::string& key) {
  if (cfg_.stage < 2) return;
  auto it = buckets_.find(key);
  FPDT_CHECK(it != buckets_.end()) << " release of uncharged grad bucket '" << key << "'";
  buckets_.erase(it);
}

}  // namespace fpdt::zero
