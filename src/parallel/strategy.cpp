#include "parallel/strategy.h"

#include "common/check.h"
#include "core/fpdt_block.h"
#include "parallel/megatron_sp.h"
#include "parallel/ring_attention.h"

namespace fpdt::parallel {

namespace {

template <typename Executor>
std::unique_ptr<core::BlockExecutor> make_executor(nn::TransformerBlock& block, std::int64_t,
                                                   core::FpdtEnv& env) {
  return std::make_unique<Executor>(block, env);
}

struct Entry {
  const char* name;
  bool baseline;  // takes the shared baseline preset
  core::BlockExecutorFactory factory;
};

// Indexed by Strategy.
constexpr Entry kTable[] = {
    {"fpdt", false, &core::FpdtBlockExecutor::create},
    {"ulysses", true, &core::FpdtBlockExecutor::create},
    {"megatron-sp", true, &make_executor<MegatronSpBlockExecutor>},
    {"ring", true, &make_executor<RingAttentionBlockExecutor>},
};

const Entry& entry(Strategy s) { return kTable[static_cast<int>(s)]; }

}  // namespace

const char* strategy_name(Strategy s) { return entry(s).name; }

Strategy parse_strategy(const std::string& name) {
  std::string names;
  for (const Strategy s : kStrategies) {
    if (name == strategy_name(s)) return s;
    names += std::string(names.empty() ? "" : ", ") + strategy_name(s);
  }
  throw FpdtError("unknown strategy: " + name + " (try " + names + ")");
}

core::FpdtConfig strategy_config(Strategy s, core::FpdtConfig cfg) {
  if (!entry(s).baseline) return cfg;
  cfg.chunks_per_rank = 1;
  cfg.offload = false;
  cfg.double_buffer = false;
  cfg.stream_prefetch = false;
  cfg.ffn_chunk_multiplier = 1;
  cfg.lm_head_chunks = 1;
  cfg.cache_forward_outputs = false;
  return cfg;
}

core::BlockExecutorFactory executor_factory(Strategy s) { return entry(s).factory; }

std::unique_ptr<core::FpdtTrainer> make_trainer(Strategy s, nn::Model& model, int world,
                                                const core::FpdtConfig& cfg,
                                                std::int64_t hbm_capacity_bytes) {
  return std::make_unique<core::FpdtTrainer>(model, world, strategy_config(s, cfg),
                                             hbm_capacity_bytes, executor_factory(s));
}

}  // namespace fpdt::parallel
