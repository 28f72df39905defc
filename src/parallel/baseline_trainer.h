// BaselineTrainer — core::FpdtTrainer under a baseline strategy's preset
// (parallel/strategy.h), built from the strategy and a ZeRO stage. Like every
// FpdtTrainer it borrows the wrapped nn::Model's weights, so losses and
// gradients are directly comparable across strategies — extending the
// Fig. 14 convergence-equivalence argument to every baseline.
#pragma once

#include <cstdint>

#include "core/fpdt_trainer.h"
#include "parallel/strategy.h"

namespace fpdt::parallel {

using BaselineKind = Strategy;

class BaselineTrainer : public core::FpdtTrainer {
 public:
  // zero_stage 0..3 (DeepSpeed Ulysses runs with ZeRO-3 in the paper's
  // evaluation, §5.1).
  BaselineTrainer(nn::Model& model, int world, BaselineKind kind,
                  std::int64_t hbm_capacity_bytes = -1, int zero_stage = 0)
      : core::FpdtTrainer(model, world, preset(kind, zero_stage), hbm_capacity_bytes,
                          executor_factory(kind)) {}

 private:
  static core::FpdtConfig preset(BaselineKind kind, int zero_stage) {
    core::FpdtConfig cfg;
    cfg.zero_stage = zero_stage;
    return strategy_config(kind, cfg);
  }
};

}  // namespace fpdt::parallel
