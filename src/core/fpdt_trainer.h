// FpdtTrainer — the one end-to-end training step over an emulated
// sequence-parallel group; every strategy is a preset of it
// (parallel/strategy.h).
//
// Wraps an existing nn::Model (weights are shared, not copied) and executes
// its training step:
//   - rank-ordinal sharding of inputs and labels (Fig. 6; contiguous at u=1),
//   - per-rank embedding,
//   - every Transformer block through a BlockExecutor from the factory
//     (FpdtBlockExecutor by default: chunked, offloaded, checkpointed),
//   - per-rank final norm and chunked loss head (§5.4 rule),
//   - full backward to embedding gradients.
//
// Because the weights are the very tensors of the wrapped model, a step
// through FpdtTrainer is directly comparable (loss and gradients) to
// nn::Model::train_step_grads on the same tokens — the property behind the
// Fig. 14 convergence-equivalence experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_executor.h"
#include "core/fpdt_block.h"
#include "core/fpdt_env.h"
#include "data/rank_ordinal.h"
#include "nn/model.h"
#include "parallel/zero/zero_engine.h"

namespace fpdt::core {

class FpdtTrainer {
 public:
  // hbm_capacity < 0 = unlimited. A finite capacity makes the trainer throw
  // OutOfMemoryError exactly where a real run would OOM.
  FpdtTrainer(nn::Model& model, int world, FpdtConfig cfg,
              std::int64_t hbm_capacity_bytes = -1,
              BlockExecutorFactory make_executor = &FpdtBlockExecutor::create);

  // tokens: s_global + 1 ids with s_global divisible by world * u.
  // Returns mean token loss; accumulates grads into the wrapped model.
  double train_step_grads(const std::vector<std::int32_t>& tokens);

  // Gradient accumulation over a batch of sequences (the paper evaluates at
  // batch 1 to maximise sequence length; Fig. 14's baseline trains at batch
  // 256 — this is how). Gradients are scaled so the result equals the mean
  // over all tokens of all sequences. Returns the batch-mean loss.
  double train_batch_grads(const std::vector<std::vector<std::int32_t>>& batch);

  FpdtEnv& env() { return env_; }
  nn::Model& model() { return *model_; }

  // Attached when cfg.zero_stage >= 0 (nullptr at the seed's -1 sentinel).
  zero::ZeroEngine* zero_engine() { return zero_.get(); }

 private:
  // Walks one parameter group for ZeRO gather/bucket windows.
  zero::ParamWalk walk_embed();
  zero::ParamWalk walk_block(std::size_t l);
  zero::ParamWalk walk_head();

  nn::Model* model_;
  FpdtEnv env_;
  data::RankOrdinalSharder sharder_;
  std::vector<std::unique_ptr<BlockExecutor>> executors_;
  std::unique_ptr<zero::ZeroEngine> zero_;
};

}  // namespace fpdt::core
