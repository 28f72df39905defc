#include "core/fpdt_trainer.h"

#include "common/check.h"
#include "obs/trace.h"

namespace fpdt::core {

FpdtTrainer::FpdtTrainer(nn::Model& model, int world, FpdtConfig cfg,
                         std::int64_t hbm_capacity_bytes, BlockExecutorFactory make_executor)
    : model_(&model),
      env_(world, cfg, hbm_capacity_bytes),
      sharder_(world, cfg.chunks_per_rank),
      zero_(model, env_, zero::ZeroConfig{cfg.zero_stage}) {
  executors_.reserve(model.blocks().size());
  for (std::size_t l = 0; l < model.blocks().size(); ++l) {
    executors_.push_back(make_executor(model.blocks()[l], static_cast<std::int64_t>(l), env_));
  }
}

zero::ParamWalk FpdtTrainer::walk_embed() {
  return [this](const nn::ParamVisitor& fn) { model_->embedding().visit(fn); };
}

zero::ParamWalk FpdtTrainer::walk_block(std::size_t l) {
  return [this, l](const nn::ParamVisitor& fn) { model_->blocks()[l].visit(fn); };
}

zero::ParamWalk FpdtTrainer::walk_head() {
  return [this](const nn::ParamVisitor& fn) {
    model_->final_norm().visit(fn);
    model_->lm_head().visit(fn);
  };
}

double FpdtTrainer::train_batch_grads(const std::vector<std::vector<std::int32_t>>& batch) {
  // Assumes gradients are zero on entry (call model().zero_grads() between
  // optimizer steps, or rely on Adam::step which zeroes after updating).
  FPDT_CHECK(!batch.empty()) << " empty batch";
  double loss_sum = 0.0;
  for (const std::vector<std::int32_t>& tokens : batch) {
    loss_sum += train_step_grads(tokens);
  }
  // train_step_grads scales each sequence's gradient by 1/s_global; divide
  // the accumulated gradients by the batch size to get the batch mean.
  const float inv = 1.0f / static_cast<float>(batch.size());
  model_->visit_params([&](nn::Param& p) { scale_(p.grad, inv); });
  return loss_sum / static_cast<double>(batch.size());
}

double FpdtTrainer::train_step_grads(const std::vector<std::int32_t>& tokens) {
  const int P = env_.world();
  const std::int64_t s_global = static_cast<std::int64_t>(tokens.size()) - 1;
  std::vector<data::RankShard> shards = sharder_.shard_tokens(tokens);

  // ---- Embedding per rank.
  std::vector<Tensor> h;
  h.reserve(static_cast<std::size_t>(P));
  {
    FPDT_TRACE_SCOPE(obs::kCatPhase, "embed");
    zero::GroupScope zs(zero_, "embed", walk_embed(), /*grad_bucket=*/false);
    env_.compute_ranks("embed", [&](int r) {
      h.push_back(model_->embedding().forward(shards[static_cast<std::size_t>(r)].inputs));
    });
  }

  // ---- Blocks with activation checkpointing: keep each block's per-rank
  // input; everything else is recomputed chunk-wise in backward.
  std::vector<std::vector<Tensor>> block_inputs;
  block_inputs.reserve(executors_.size());
  {
    FPDT_TRACE_SCOPE(obs::kCatPhase, "blocks.forward");
    for (std::size_t l = 0; l < executors_.size(); ++l) {
      // ZeRO-3: this block's params are gathered only for its execution
      // window — the working set stays one layer, not the whole model.
      zero::GroupScope zs(zero_, "block" + std::to_string(l), walk_block(l),
                          /*grad_bucket=*/false);
      block_inputs.push_back(h);
      h = executors_[l]->forward(h);
    }
  }

  // ---- Final norm + chunked loss head per rank. The loss is scaled by the
  // *global* token count so per-rank gradient contributions compose into
  // exactly the reference mean-loss gradient.
  std::int64_t lm_chunks = env_.cfg().lm_head_chunks;
  if (lm_chunks <= 0) lm_chunks = model_->lm_head().suggested_chunks();
  double loss_sum = 0.0;
  std::vector<Tensor> dh(static_cast<std::size_t>(P));
  {
    FPDT_TRACE_SCOPE(obs::kCatPhase, "loss_head");
    // forward_backward computes head/norm grads here, so the ZeRO-2/3 grad
    // bucket is live for this window.
    zero::GroupScope zs(zero_, "head", walk_head(), /*grad_bucket=*/true);
    env_.compute_ranks("loss", [&](int r) {
      nn::NormStats st;
      Tensor hn = model_->final_norm().forward(h[static_cast<std::size_t>(r)], st);
      nn::LossResult res = model_->lm_head().forward_backward(
          hn, shards[static_cast<std::size_t>(r)].labels, lm_chunks, s_global,
          &env_.device(r).hbm());
      loss_sum += res.loss_sum;
      dh[static_cast<std::size_t>(r)] =
          model_->final_norm().backward(res.dx, h[static_cast<std::size_t>(r)], st);
    });
  }

  // ---- Backward through blocks in reverse.
  {
    FPDT_TRACE_SCOPE(obs::kCatPhase, "blocks.backward");
    for (std::size_t l = executors_.size(); l-- > 0;) {
      zero::GroupScope zs(zero_, "block" + std::to_string(l), walk_block(l),
                          /*grad_bucket=*/true);
      dh = executors_[l]->backward(dh, block_inputs[l]);
    }
  }

  // ---- Embedding backward per rank.
  {
    FPDT_TRACE_SCOPE(obs::kCatPhase, "embed.backward");
    zero::GroupScope zs(zero_, "embed", walk_embed(), /*grad_bucket=*/true);
    env_.compute_ranks("bwd.embed", [&](int r) {
      model_->embedding().backward(dh[static_cast<std::size_t>(r)],
                                   shards[static_cast<std::size_t>(r)].inputs);
    });
  }
  // Retire the step's compute spans: side-effect free (every transfer has
  // retired), and no transfer drains them for strategies that offload none.
  for (int r = 0; r < P; ++r) env_.device(r).compute_stream().synchronize();
  return loss_sum / static_cast<double>(s_global);
}

}  // namespace fpdt::core
