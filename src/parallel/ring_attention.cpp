#include "parallel/ring_attention.h"

#include "common/check.h"
#include "nn/attention.h"

namespace fpdt::parallel {

namespace {
using nn::AttentionOutput;
using nn::NormStats;
using nn::OnlineAttnState;
}  // namespace

RingAttentionBlockExecutor::RingAttentionBlockExecutor(nn::TransformerBlock& block,
                                                       core::FpdtEnv& env)
    : block_(&block), env_(&env) {}

std::vector<Tensor> RingAttentionBlockExecutor::forward(const std::vector<Tensor>& x_local) {
  return run_forward(x_local, nullptr);
}

std::vector<Tensor> RingAttentionBlockExecutor::run_forward(const std::vector<Tensor>& x_local,
                                                            std::vector<RankFwd>* saved) {
  const int P = env_->world();
  FPDT_CHECK_EQ(static_cast<int>(x_local.size()), P) << " rank count";
  nn::AttentionLayer& attn = block_->attention();
  const std::int64_t s_l = x_local[0].dim(0);
  useful_steps_.assign(static_cast<std::size_t>(P), 0);
  if (saved != nullptr) saved->resize(static_cast<std::size_t>(P));

  // ---- Local QKV with all heads; positions are the shard offsets.
  std::vector<Tensor> k_blocks(static_cast<std::size_t>(P)), v_blocks(static_cast<std::size_t>(P));
  std::vector<int> block_src(static_cast<std::size_t>(P));
  std::vector<OnlineAttnState> states;
  std::vector<Tensor> qs(static_cast<std::size_t>(P));
  std::vector<Tensor> xns(static_cast<std::size_t>(P));
  states.reserve(static_cast<std::size_t>(P));
  env_->compute_ranks("proj", [&](int r) {
    NormStats st;
    Tensor xn = block_->norm1().forward(x_local[static_cast<std::size_t>(r)], st);
    nn::AttentionLayer::Qkv qkv = attn.project_qkv(xn, r * s_l);
    qs[static_cast<std::size_t>(r)] = qkv.q;
    k_blocks[static_cast<std::size_t>(r)] = qkv.k;
    v_blocks[static_cast<std::size_t>(r)] = qkv.v;
    block_src[static_cast<std::size_t>(r)] = r;
    xns[static_cast<std::size_t>(r)] = std::move(xn);
    states.push_back(
        OnlineAttnState::create(qkv.q.dim(0), qkv.q.dim(1), qkv.q.dim(2)));
  });

  // ---- P rounds: consume the resident KV block, then rotate (the real
  // system overlaps the send/recv with the blockwise attention compute).
  for (int step = 0; step < P; ++step) {
    for (int r = 0; r < P; ++r) {
      const int src = block_src[static_cast<std::size_t>(r)];
      // Causal: the whole block is in the future of every local query.
      if (src > r) continue;
      useful_steps_[static_cast<std::size_t>(r)]++;
      env_->device(r).compute("attn", [&] {
        nn::online_attn_step(states[static_cast<std::size_t>(r)],
                             qs[static_cast<std::size_t>(r)],
                             k_blocks[static_cast<std::size_t>(r)],
                             v_blocks[static_cast<std::size_t>(r)], /*causal=*/true, r * s_l,
                             src * s_l);
      });
    }
    if (step + 1 < P) {
      k_blocks = env_->pg().ring_shift(k_blocks);
      v_blocks = env_->pg().ring_shift(v_blocks);
      std::vector<int> next_src(static_cast<std::size_t>(P));
      for (int r = 0; r < P; ++r) {
        next_src[static_cast<std::size_t>((r + 1) % P)] = block_src[static_cast<std::size_t>(r)];
      }
      block_src = std::move(next_src);
    }
  }

  // ---- Output projection, residual, FFN — all rank-local.
  std::vector<Tensor> z_local(static_cast<std::size_t>(P));
  env_->compute_ranks("post", [&](int r) {
    AttentionOutput out = nn::online_attn_finalize(states[static_cast<std::size_t>(r)]);
    Tensor y = add(x_local[static_cast<std::size_t>(r)],
                   attn.project_out(out.out));
    NormStats st2;
    Tensor yn = block_->norm2().forward(y, st2);
    z_local[static_cast<std::size_t>(r)] = add(y, block_->ffn().forward(yn));
    if (saved != nullptr) {
      RankFwd& fw = (*saved)[static_cast<std::size_t>(r)];
      fw.xn = xns[static_cast<std::size_t>(r)];
      fw.q = qs[static_cast<std::size_t>(r)];
      fw.attn_out = out.out;
      fw.lse = out.lse;
      fw.y_local = std::move(y);
    }
  });
  if (saved != nullptr) {
    // KV blocks have rotated P-1 times; rotate once more so block r is home.
    k_blocks = env_->pg().ring_shift(k_blocks);
    v_blocks = env_->pg().ring_shift(v_blocks);
    for (int r = 0; r < P; ++r) {
      (*saved)[static_cast<std::size_t>(r)].k = k_blocks[static_cast<std::size_t>(r)];
      (*saved)[static_cast<std::size_t>(r)].v = v_blocks[static_cast<std::size_t>(r)];
    }
  }
  return z_local;
}

std::vector<Tensor> RingAttentionBlockExecutor::backward(const std::vector<Tensor>& dz_local,
                                                         const std::vector<Tensor>& x_local) {
  const int P = env_->world();
  nn::AttentionLayer& attn = block_->attention();
  const std::int64_t s_l = x_local[0].dim(0);

  std::vector<RankFwd> fw;
  run_forward(x_local, &fw);

  // ---- FFN / norm2 / Wo backward, rank-local.
  std::vector<Tensor> dout(static_cast<std::size_t>(P));
  std::vector<Tensor> D(static_cast<std::size_t>(P));
  std::vector<Tensor> dy_local(static_cast<std::size_t>(P));
  env_->compute_ranks("bwd.ffn", [&](int r) {
    RankFwd& f = fw[static_cast<std::size_t>(r)];
    NormStats st2;
    Tensor yn = block_->norm2().forward(f.y_local, st2);
    Tensor dyn = block_->ffn().backward(dz_local[static_cast<std::size_t>(r)], yn);
    Tensor dy = add(dz_local[static_cast<std::size_t>(r)],
                    block_->norm2().backward(dyn, f.y_local, st2));
    dout[static_cast<std::size_t>(r)] = attn.backward_out(dy, f.attn_out);
    D[static_cast<std::size_t>(r)] = nn::online_attn_backward_D(
        f.attn_out, dout[static_cast<std::size_t>(r)]);
    dy_local[static_cast<std::size_t>(r)] = std::move(dy);
  });

  // ---- Ring backward: every (query rank r, KV source j <= r) pair
  // contributes; dq stays local, dk/dv accumulate at the block's home rank
  // (delivered by the reverse rotation in the real system).
  std::vector<Tensor> dq(static_cast<std::size_t>(P)), dk(static_cast<std::size_t>(P)),
      dv(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    dq[static_cast<std::size_t>(r)] =
        Tensor::zeros(fw[static_cast<std::size_t>(r)].q.shape());
    dk[static_cast<std::size_t>(r)] =
        Tensor::zeros(fw[static_cast<std::size_t>(r)].k.shape());
    dv[static_cast<std::size_t>(r)] =
        Tensor::zeros(fw[static_cast<std::size_t>(r)].v.shape());
  }
  env_->compute_ranks("bwd.attn", [&](int r) {
    RankFwd& f = fw[static_cast<std::size_t>(r)];
    for (int j = 0; j <= r; ++j) {
      nn::online_attn_backward_step(
          f.q, fw[static_cast<std::size_t>(j)].k, fw[static_cast<std::size_t>(j)].v,
          dout[static_cast<std::size_t>(r)], f.lse, D[static_cast<std::size_t>(r)],
          /*causal=*/true, r * s_l, j * s_l, dq[static_cast<std::size_t>(r)],
          dk[static_cast<std::size_t>(j)], dv[static_cast<std::size_t>(j)]);
    }
  });

  // ---- Projection + norm1 backward, rank-local.
  std::vector<Tensor> dx_local(static_cast<std::size_t>(P));
  env_->compute_ranks("bwd.qkv_proj", [&](int r) {
    RankFwd& f = fw[static_cast<std::size_t>(r)];
    Tensor dxn = attn.backward_qkv(dq[static_cast<std::size_t>(r)],
                                   dk[static_cast<std::size_t>(r)],
                                   dv[static_cast<std::size_t>(r)], f.xn, r * s_l);
    NormStats st1;
    block_->norm1().forward(x_local[static_cast<std::size_t>(r)], st1);
    dx_local[static_cast<std::size_t>(r)] =
        add(dy_local[static_cast<std::size_t>(r)],
            block_->norm1().backward(dxn, x_local[static_cast<std::size_t>(r)], st1));
  });
  return dx_local;
}

}  // namespace fpdt::parallel
