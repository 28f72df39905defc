// Megatron-SP baseline (Korthikanti et al., 2023): tensor parallelism with
// sequence parallelism in the norm/residual regions.
//
// Dataflow per block (P-way TP group; sequence shards are contiguous):
//   norm1 on the local sequence shard
//   → all-gather along sequence (full [s, d] on every rank)
//   → column-parallel QKV (each rank owns h/P heads' worth of rows of
//     Wq/Wk/Wv) → full-sequence attention with local heads
//   → row-parallel Wo (each rank owns d/P input columns) producing partial
//     sums → reduce-scatter back to sequence shards (+ unsharded bias)
//   → residual, norm2, and the same gather/column/row/scatter pattern for
//     the FFN.
//
// The communication volume therefore scales with the full message size
// per layer (2 all-gathers + 2 reduce-scatters of [s, d]) regardless of P —
// the property the paper contrasts with Ulysses' constant-volume All2All.
//
// Weights are *views/slices of the same shared nn::TransformerBlock*, so
// gradients accumulate into the identical tensors the reference uses and
// equivalence is testable end to end. Those slices are disjoint per rank,
// so the per-rank GEMM loops run as parallel_for_ranks bodies (one rank per
// worker); the unsharded bias and norm grads and every collective stay on
// the calling thread, in rank order, and results are bit-identical to
// serial.
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_executor.h"
#include "core/fpdt_env.h"
#include "nn/transformer_block.h"

namespace fpdt::parallel {

class MegatronSpBlockExecutor : public core::BlockExecutor {
 public:
  MegatronSpBlockExecutor(nn::TransformerBlock& block, core::FpdtEnv& env);

  // x_local: contiguous per-rank sequence shards [s_local, d].
  std::vector<Tensor> forward(const std::vector<Tensor>& x_local) override;

  // Recompute-based backward (activation checkpointing), mirroring forward
  // with the transposed collectives (bwd of all-gather = reduce-scatter of
  // gradients and vice versa). Accumulates weight grads, returns dx shards.
  std::vector<Tensor> backward(const std::vector<Tensor>& dz_local,
                               const std::vector<Tensor>& x_local) override;

 private:
  struct RankFwd {
    // Saved per-rank forward intermediates for one backward invocation.
    Tensor xn_full, q, k, v, attn_out, lse, y_local, yn_full, u1, u3;
  };

  std::vector<Tensor> run_forward(const std::vector<Tensor>& x_local,
                                  std::vector<RankFwd>* saved);

  // Head/hidden shard boundaries for rank r.
  std::int64_t q_rows_per_rank() const;
  std::int64_t kv_rows_per_rank() const;
  std::int64_t ffn_rows_per_rank() const;

  nn::TransformerBlock* block_;
  core::FpdtEnv* env_;
};

}  // namespace fpdt::parallel
