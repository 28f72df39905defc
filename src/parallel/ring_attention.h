// Ring Attention baseline (Liu et al., 2023).
//
// Sequence shards are contiguous; each rank projects QKV for its shard with
// *all* heads, then KV blocks rotate around the ring for P-1 steps while
// each rank folds the visiting block into its online-attention state. With
// a causal mask, rank r only has useful work for KV blocks from source
// ranks <= r — the load imbalance the paper calls out ("GPUs are always
// load-balanced" in FPDT, unlike Ring). We surface that imbalance as a
// per-rank count of non-masked (query, KV-block) pairs.
//
// Backward is functionally faithful: gradients of a KV block accumulate
// contributions from every query rank, exactly what the reverse ring
// rotation computes; the emulation sums them directly (the transport is the
// substituted part, the arithmetic is not).
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_executor.h"
#include "core/fpdt_env.h"
#include "nn/transformer_block.h"

namespace fpdt::parallel {

class RingAttentionBlockExecutor : public core::BlockExecutor {
 public:
  RingAttentionBlockExecutor(nn::TransformerBlock& block, core::FpdtEnv& env);

  std::vector<Tensor> forward(const std::vector<Tensor>& x_local) override;
  std::vector<Tensor> backward(const std::vector<Tensor>& dz_local,
                               const std::vector<Tensor>& x_local) override;

  // Non-masked (q rank, kv block) pair count per rank from the last
  // forward — rank 0 does 1 useful step, rank P-1 does P (imbalance).
  const std::vector<std::int64_t>& useful_steps() const { return useful_steps_; }

 private:
  struct RankFwd {
    Tensor xn, q, k, v, attn_out, lse, y_local;
  };

  std::vector<Tensor> run_forward(const std::vector<Tensor>& x_local,
                                  std::vector<RankFwd>* saved);

  nn::TransformerBlock* block_;
  core::FpdtEnv* env_;
  std::vector<std::int64_t> useful_steps_;
};

}  // namespace fpdt::parallel
