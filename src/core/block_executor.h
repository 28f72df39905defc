// BlockExecutor — how one Transformer block runs across the sequence-parallel
// group. core::FpdtTrainer drives every strategy's blocks through it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fpdt_env.h"
#include "nn/transformer_block.h"

namespace fpdt::core {

class BlockExecutor {
 public:
  virtual ~BlockExecutor() = default;

  // x_local: one [s_local, d] tensor per rank in the trainer's shard
  // layout; returns per-rank outputs. backward accumulates weight gradients
  // into the shared block and returns per-rank dx.
  virtual std::vector<Tensor> forward(const std::vector<Tensor>& x_local) = 0;
  virtual std::vector<Tensor> backward(const std::vector<Tensor>& dz_local,
                                       const std::vector<Tensor>& x_local) = 0;
};

// Builds the executor of block `layer_index` over `env`.
using BlockExecutorFactory = std::unique_ptr<BlockExecutor> (*)(nn::TransformerBlock& block,
                                                                std::int64_t layer_index,
                                                                FpdtEnv& env);

}  // namespace fpdt::core
