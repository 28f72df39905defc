#include "parallel/megatron_sp.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/rope.h"

namespace fpdt::parallel {

namespace {

using nn::Arch;
using nn::AttentionOutput;
using nn::NormStats;
using runtime::Allocation;

// Column-sum of a 2-D tensor into an existing 1-D accumulator.
void add_colsum_(Tensor& acc, const Tensor& x2d) {
  const std::int64_t rows = x2d.dim(0);
  const std::int64_t cols = x2d.dim(1);
  FPDT_CHECK_EQ(acc.numel(), cols) << " colsum accumulator";
  float* a = acc.data();
  const float* xp = x2d.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) a[c] += xp[r * cols + c];
  }
}

// grad[:, c0:c0+W.cols] += delta.
void add_into_columns_(Tensor& grad, const Tensor& delta, std::int64_t c0) {
  const std::int64_t rows = grad.dim(0);
  const std::int64_t gcols = grad.dim(1);
  const std::int64_t dcols = delta.dim(1);
  FPDT_CHECK_EQ(delta.dim(0), rows) << " column grad rows";
  float* g = grad.data();
  const float* dp = delta.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < dcols; ++c) g[r * gcols + c0 + c] += dp[r * dcols + c];
  }
}

}  // namespace

MegatronSpBlockExecutor::MegatronSpBlockExecutor(nn::TransformerBlock& block,
                                                 core::FpdtEnv& env)
    : block_(&block), env_(&env) {
  const int P = env.world();
  FPDT_CHECK_EQ(block.attention().n_head() % P, 0) << " heads must divide TP degree";
  FPDT_CHECK_EQ(block.attention().n_kv_head() % P, 0) << " kv heads must divide TP degree";
  FPDT_CHECK_EQ(block.ffn().hidden() % P, 0) << " ffn hidden must divide TP degree";
}

std::int64_t MegatronSpBlockExecutor::q_rows_per_rank() const {
  return block_->attention().n_head() / env_->world() * block_->attention().head_dim();
}

std::int64_t MegatronSpBlockExecutor::kv_rows_per_rank() const {
  return block_->attention().n_kv_head() / env_->world() * block_->attention().head_dim();
}

std::int64_t MegatronSpBlockExecutor::ffn_rows_per_rank() const {
  return block_->ffn().hidden() / env_->world();
}

std::vector<Tensor> MegatronSpBlockExecutor::forward(const std::vector<Tensor>& x_local) {
  return run_forward(x_local, nullptr);
}

std::vector<Tensor> MegatronSpBlockExecutor::run_forward(const std::vector<Tensor>& x_local,
                                                         std::vector<RankFwd>* saved) {
  const int P = env_->world();
  FPDT_CHECK_EQ(static_cast<int>(x_local.size()), P) << " rank count";
  nn::AttentionLayer& attn = block_->attention();
  const std::int64_t dh = attn.head_dim();
  const std::int64_t h_local = attn.n_head() / P;
  const std::int64_t kv_local = attn.n_kv_head() / P;
  const std::int64_t qr = q_rows_per_rank();
  const std::int64_t kvr = kv_rows_per_rank();
  const bool gpt = block_->ffn().arch() == Arch::kGpt;
  const std::int64_t fr = ffn_rows_per_rank();

  if (saved != nullptr) saved->resize(static_cast<std::size_t>(P));

  // ---- norm1 + sequence all-gather. The gathered [s, d] activation is the
  // footprint TP cannot reduce (§5.5: the GEMM "generates an intermediate
  // buffer [N, B, C̃] regardless of C").
  std::vector<Tensor> xn_local(static_cast<std::size_t>(P));
  env_->compute_ranks("proj.norm1", [&](int r) {
    NormStats st;
    xn_local[static_cast<std::size_t>(r)] =
        block_->norm1().forward(x_local[static_cast<std::size_t>(r)], st);
  });
  std::vector<Tensor> xn_full = env_->pg().all_gather(xn_local);
  const std::int64_t s = xn_full[0].dim(0);

  // Rank bodies below touch only rank r's slices of the shared weights, its
  // own partial/saved slot and its own device pool (common/thread_pool.h).
  std::vector<Tensor> attn_partials(static_cast<std::size_t>(P));
  parallel_for_ranks(P, [&](int r) {
    runtime::Device& dev = env_->device(r);
    dev.hbm().set_phase_label("msp.attn");
    Allocation gather_charge(&dev.hbm(), xn_full[0].numel() * 2);
    // Column-parallel QKV: this rank's rows of Wq/Wk/Wv are its heads.
    Tensor q, k, v;
    dev.compute("proj", [&] {
      q = matmul_nt(xn_full[static_cast<std::size_t>(r)],
                    attn.wq().weight().value.slice0(r * qr, (r + 1) * qr));
      k = matmul_nt(xn_full[static_cast<std::size_t>(r)],
                    attn.wk().weight().value.slice0(r * kvr, (r + 1) * kvr));
      v = matmul_nt(xn_full[static_cast<std::size_t>(r)],
                    attn.wv().weight().value.slice0(r * kvr, (r + 1) * kvr));
      if (attn.wq().has_bias()) {
        add_bias_(q, attn.wq().bias().value.slice0(r * qr, (r + 1) * qr));
        add_bias_(k, attn.wk().bias().value.slice0(r * kvr, (r + 1) * kvr));
        add_bias_(v, attn.wv().bias().value.slice0(r * kvr, (r + 1) * kvr));
      }
    });
    Allocation qkv_charge(&dev.hbm(), (q.numel() + k.numel() + v.numel()) * 2);
    q = q.reshape({s, h_local, dh});
    k = k.reshape({s, kv_local, dh});
    v = v.reshape({s, kv_local, dh});
    AttentionOutput out;
    dev.compute("attn", [&] {
      nn::rope_apply_(q, 0, attn.rope_base());
      nn::rope_apply_(k, 0, attn.rope_base());
      out = nn::reference_attention_forward(q, k, v, /*causal=*/true);
    });
    // Row-parallel Wo: local heads hit their column block; partial sums are
    // reduce-scattered back to sequence shards.
    dev.compute("out_proj", [&] {
      Tensor wo_cols = attn.wo().weight().value.narrow(1, r * qr, qr);
      attn_partials[static_cast<std::size_t>(r)] =
          matmul_nt(out.out.reshape({s, qr}), wo_cols);
    });
    if (saved != nullptr) {
      RankFwd& fw = (*saved)[static_cast<std::size_t>(r)];
      fw.xn_full = xn_full[static_cast<std::size_t>(r)];
      fw.q = q;
      fw.k = k;
      fw.v = v;
      fw.attn_out = out.out;
      fw.lse = out.lse;
    }
  });
  std::vector<Tensor> attn_local = env_->pg().reduce_scatter(attn_partials);

  // ---- Residual + norm2 + gathered FFN.
  std::vector<Tensor> yn_local(static_cast<std::size_t>(P));
  std::vector<Tensor> y_local(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    if (block_->attention().wo().has_bias()) {
      add_bias_(attn_local[static_cast<std::size_t>(r)], attn.wo().bias().value);
    }
    y_local[static_cast<std::size_t>(r)] =
        add(x_local[static_cast<std::size_t>(r)], attn_local[static_cast<std::size_t>(r)]);
    env_->device(r).compute("ffn.norm2", [&] {
      NormStats st;
      yn_local[static_cast<std::size_t>(r)] =
          block_->norm2().forward(y_local[static_cast<std::size_t>(r)], st);
    });
    if (saved != nullptr) {
      (*saved)[static_cast<std::size_t>(r)].y_local = y_local[static_cast<std::size_t>(r)];
    }
  }
  std::vector<Tensor> yn_full = env_->pg().all_gather(yn_local);

  std::vector<Tensor> ffn_partials(static_cast<std::size_t>(P));
  // fc1 is the GPT up-projection / Llama gate; both are column-parallel.
  nn::Linear& fc1 = block_->ffn().fc1();
  env_->parallel_compute("ffn", [&](int r) {
    runtime::Device& dev = env_->device(r);
    dev.hbm().set_phase_label("msp.ffn");
    Allocation gather_charge(&dev.hbm(), yn_full[0].numel() * 2);
    Tensor u1 = matmul_nt(yn_full[static_cast<std::size_t>(r)],
                          fc1.weight().value.slice0(r * fr, (r + 1) * fr));
    if (fc1.has_bias()) {
      add_bias_(u1, fc1.bias().value.slice0(r * fr, (r + 1) * fr));
    }
    Allocation act_charge(&dev.hbm(), u1.numel() * 2 * (gpt ? 2 : 3));
    Tensor hmid;
    Tensor u3;
    if (gpt) {
      hmid = nn::gelu_forward(u1);
    } else {
      u3 = matmul_nt(yn_full[static_cast<std::size_t>(r)],
                     block_->ffn().fc3().weight().value.slice0(r * fr, (r + 1) * fr));
      hmid = mul(nn::silu_forward(u1), u3);
    }
    Tensor fc2_cols = block_->ffn().fc2().weight().value.narrow(1, r * fr, fr);
    ffn_partials[static_cast<std::size_t>(r)] = matmul_nt(hmid, fc2_cols);
    if (saved != nullptr) {
      RankFwd& fw = (*saved)[static_cast<std::size_t>(r)];
      fw.yn_full = yn_full[static_cast<std::size_t>(r)];
      fw.u1 = u1;
      fw.u3 = u3;
    }
  });
  std::vector<Tensor> ffn_local = env_->pg().reduce_scatter(ffn_partials);

  std::vector<Tensor> z_local(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    if (block_->ffn().fc2().has_bias()) {
      add_bias_(ffn_local[static_cast<std::size_t>(r)], block_->ffn().fc2().bias().value);
    }
    z_local[static_cast<std::size_t>(r)] =
        add(y_local[static_cast<std::size_t>(r)], ffn_local[static_cast<std::size_t>(r)]);
  }
  return z_local;
}

std::vector<Tensor> MegatronSpBlockExecutor::backward(const std::vector<Tensor>& dz_local,
                                                      const std::vector<Tensor>& x_local) {
  const int P = env_->world();
  nn::AttentionLayer& attn = block_->attention();
  const std::int64_t qr = q_rows_per_rank();
  const std::int64_t kvr = kv_rows_per_rank();
  const std::int64_t fr = ffn_rows_per_rank();
  const bool gpt = block_->ffn().arch() == Arch::kGpt;

  std::vector<RankFwd> fw;
  run_forward(x_local, &fw);
  const std::int64_t s = fw[0].xn_full.dim(0);

  // ---- FFN backward. Backward of reduce-scatter = all-gather of grads.
  // The unsharded bias grads sum every rank's rows into one vector, so
  // their loops stay on the calling thread, in rank order; each rank body
  // then writes only its own row block (fc1/fc3, biases) or column block
  // (fc2) of the weight grads.
  nn::Linear& fc1 = block_->ffn().fc1();
  nn::Linear& fc2 = block_->ffn().fc2();
  for (int r = 0; r < P; ++r) {
    if (fc2.has_bias()) add_colsum_(fc2.bias().grad, dz_local[static_cast<std::size_t>(r)]);
  }
  std::vector<Tensor> dz_full = env_->pg().all_gather(dz_local);
  std::vector<Tensor> dyn_partials(static_cast<std::size_t>(P));
  env_->parallel_compute("bwd.ffn", [&](int r) {
    Tensor fc2_cols = fc2.weight().value.narrow(1, r * fr, fr);
    Tensor dh = matmul(dz_full[static_cast<std::size_t>(r)], fc2_cols);  // [s, f/P]
    Tensor hmid = gpt ? nn::gelu_forward(fw[static_cast<std::size_t>(r)].u1)
                      : mul(nn::silu_forward(fw[static_cast<std::size_t>(r)].u1),
                            fw[static_cast<std::size_t>(r)].u3);
    add_into_columns_(fc2.weight().grad,
                      matmul_tn(dz_full[static_cast<std::size_t>(r)], hmid), r * fr);
    Tensor du1;
    Tensor dyn;
    if (gpt) {
      du1 = nn::gelu_backward(dh, fw[static_cast<std::size_t>(r)].u1);
      dyn = matmul(du1, fc1.weight().value.slice0(r * fr, (r + 1) * fr));
    } else {
      Tensor sg = nn::silu_forward(fw[static_cast<std::size_t>(r)].u1);
      du1 = nn::silu_backward(mul(dh, fw[static_cast<std::size_t>(r)].u3),
                              fw[static_cast<std::size_t>(r)].u1);
      Tensor du3 = mul(dh, sg);
      dyn = matmul(du1, fc1.weight().value.slice0(r * fr, (r + 1) * fr));
      add_(dyn, matmul(du3, block_->ffn().fc3().weight().value.slice0(r * fr, (r + 1) * fr)));
      Tensor g3 = block_->ffn().fc3().weight().grad.slice0(r * fr, (r + 1) * fr);
      add_(g3, matmul_tn(du3, fw[static_cast<std::size_t>(r)].yn_full));
    }
    Tensor g1 = fc1.weight().grad.slice0(r * fr, (r + 1) * fr);
    add_(g1, matmul_tn(du1, fw[static_cast<std::size_t>(r)].yn_full));
    if (fc1.has_bias()) {
      Tensor b1 = fc1.bias().grad.slice0(r * fr, (r + 1) * fr);
      add_colsum_(b1, du1);
    }
    dyn_partials[static_cast<std::size_t>(r)] = std::move(dyn);
  });
  // Backward of all-gather = reduce-scatter of gradients.
  std::vector<Tensor> dyn_local = env_->pg().reduce_scatter(dyn_partials);

  std::vector<Tensor> dy_local(static_cast<std::size_t>(P));
  env_->compute_ranks("bwd.ffn.norm2", [&](int r) {
    NormStats st2;
    block_->norm2().forward(fw[static_cast<std::size_t>(r)].y_local, st2);
    dy_local[static_cast<std::size_t>(r)] =
        add(dz_local[static_cast<std::size_t>(r)],
            block_->norm2().backward(dyn_local[static_cast<std::size_t>(r)],
                                     fw[static_cast<std::size_t>(r)].y_local, st2));
  });

  // ---- Attention backward.
  for (int r = 0; r < P; ++r) {
    if (attn.wo().has_bias()) {
      add_colsum_(attn.wo().bias().grad, dy_local[static_cast<std::size_t>(r)]);
    }
  }
  std::vector<Tensor> dy_full = env_->pg().all_gather(dy_local);
  std::vector<Tensor> dxn_partials(static_cast<std::size_t>(P));
  parallel_for_ranks(P, [&](int r) {
    runtime::Device& dev = env_->device(r);
    RankFwd& f = fw[static_cast<std::size_t>(r)];
    Tensor dout;
    dev.compute("bwd.out_proj", [&] {
      Tensor wo_cols = attn.wo().weight().value.narrow(1, r * qr, qr);
      Tensor do_flat = matmul(dy_full[static_cast<std::size_t>(r)], wo_cols);  // [s, qr]
      add_into_columns_(
          attn.wo().weight().grad,
          matmul_tn(dy_full[static_cast<std::size_t>(r)], f.attn_out.reshape({s, qr})), r * qr);
      dout = do_flat.reshape(f.attn_out.shape());
    });
    Tensor dq = Tensor::zeros(f.q.shape());
    Tensor dk = Tensor::zeros(f.k.shape());
    Tensor dv = Tensor::zeros(f.v.shape());
    dev.compute("bwd.attn", [&] {
      Tensor D = nn::online_attn_backward_D(f.attn_out, dout);
      nn::online_attn_backward_step(f.q, f.k, f.v, dout, f.lse, D, /*causal=*/true, 0, 0, dq, dk,
                                    dv);
      nn::rope_apply_backward_(dq, 0, attn.rope_base());
      nn::rope_apply_backward_(dk, 0, attn.rope_base());
    });
    dev.compute("bwd.proj", [&] {
      Tensor dq2 = dq.reshape({s, qr});
      Tensor dk2 = dk.reshape({s, kvr});
      Tensor dv2 = dv.reshape({s, kvr});
      Tensor dxn = matmul(dq2, attn.wq().weight().value.slice0(r * qr, (r + 1) * qr));
      add_(dxn, matmul(dk2, attn.wk().weight().value.slice0(r * kvr, (r + 1) * kvr)));
      add_(dxn, matmul(dv2, attn.wv().weight().value.slice0(r * kvr, (r + 1) * kvr)));
      Tensor gq = attn.wq().weight().grad.slice0(r * qr, (r + 1) * qr);
      add_(gq, matmul_tn(dq2, f.xn_full));
      Tensor gk = attn.wk().weight().grad.slice0(r * kvr, (r + 1) * kvr);
      add_(gk, matmul_tn(dk2, f.xn_full));
      Tensor gv = attn.wv().weight().grad.slice0(r * kvr, (r + 1) * kvr);
      add_(gv, matmul_tn(dv2, f.xn_full));
      if (attn.wq().has_bias()) {
        Tensor bq = attn.wq().bias().grad.slice0(r * qr, (r + 1) * qr);
        add_colsum_(bq, dq2);
        Tensor bk = attn.wk().bias().grad.slice0(r * kvr, (r + 1) * kvr);
        add_colsum_(bk, dk2);
        Tensor bv = attn.wv().bias().grad.slice0(r * kvr, (r + 1) * kvr);
        add_colsum_(bv, dv2);
      }
      dxn_partials[static_cast<std::size_t>(r)] = std::move(dxn);
    });
  });
  std::vector<Tensor> dxn_local = env_->pg().reduce_scatter(dxn_partials);

  std::vector<Tensor> dx_local(static_cast<std::size_t>(P));
  env_->compute_ranks("bwd.proj.norm1", [&](int r) {
    NormStats st1;
    block_->norm1().forward(x_local[static_cast<std::size_t>(r)], st1);
    dx_local[static_cast<std::size_t>(r)] =
        add(dy_local[static_cast<std::size_t>(r)],
            block_->norm1().backward(dxn_local[static_cast<std::size_t>(r)],
                                     x_local[static_cast<std::size_t>(r)], st1));
  });
  return dx_local;
}

}  // namespace fpdt::parallel
