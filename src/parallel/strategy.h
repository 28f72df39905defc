// Strategy table — every training strategy is the one core::FpdtTrainer
// loop under a preset: FpdtConfig data plus a block-executor factory.
//
// FPDT is "designed based on DeepSpeed Ulysses" (§4): with one chunk per
// rank, no offload and the contiguous layout rank-ordinal sharding gives at
// u = 1, FpdtBlockExecutor *is* Ulysses (Jacobs et al., 2023), the Table-2
// baseline. Megatron-SP and Ring Attention bring their own executors. The
// three baselines share one preset: u = 1, a monolithic loss head (the §5.4
// logits spike), no offload, no chunk cache and no stream prefetch. ZeRO
// stage, kernel backend, grid shape and fault spec pass through; fpdt takes
// the config as given.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/block_executor.h"
#include "core/fpdt_config.h"
#include "core/fpdt_trainer.h"
#include "nn/model.h"

namespace fpdt::parallel {

enum class Strategy { kFpdt, kUlysses, kMegatronSp, kRing };

inline constexpr std::array<Strategy, 4> kStrategies = {
    Strategy::kFpdt, Strategy::kUlysses, Strategy::kMegatronSp, Strategy::kRing};

// "fpdt", "ulysses", "megatron-sp", "ring"; parse_strategy throws an
// FpdtError listing every name on anything else.
const char* strategy_name(Strategy s);
Strategy parse_strategy(const std::string& name);

// `cfg` with the strategy's preset applied (idempotent).
core::FpdtConfig strategy_config(Strategy s, core::FpdtConfig cfg);
core::BlockExecutorFactory executor_factory(Strategy s);

// FpdtTrainer under strategy_config(s, cfg) with the strategy's executors.
std::unique_ptr<core::FpdtTrainer> make_trainer(Strategy s, nn::Model& model, int world,
                                                const core::FpdtConfig& cfg,
                                                std::int64_t hbm_capacity_bytes = -1);

}  // namespace fpdt::parallel
