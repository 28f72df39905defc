#include "core/fpdt_block.h"

#include <array>
#include <deque>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/chunk_prefetcher.h"
#include "nn/attention.h"

namespace fpdt::core {

namespace {

using nn::AttentionOutput;
using nn::NormStats;
using nn::OnlineAttnState;
using runtime::Allocation;
using runtime::Buffer;
using runtime::Device;
using runtime::Event;

// Activations are accounted in the paper's training dtype.
constexpr std::int64_t kActBytes = runtime::dtype_size(runtime::Dtype::kBF16);

// Collects tensor handles (shared storage, no copy) from per-rank buffers
// for a collective call.
std::vector<Tensor> tensors_of(const std::vector<Buffer>& buffers) {
  std::vector<Tensor> out;
  out.reserve(buffers.size());
  for (const Buffer& b : buffers) out.push_back(b.tensor());
  return out;
}

// Compute regions run through Device::compute: their spans give transfers
// something to hide behind and carry the double-buffer window dependency. A
// transfer that must follow a collective (priced by the group) waits on the
// compute stream's record() after it.

std::string span_name(const char* kind, std::int64_t i) {
  return std::string(kind) + "." + std::to_string(i);
}
std::string span_name(const char* kind, std::int64_t i, std::int64_t j) {
  return std::string(kind) + "." + std::to_string(i) + "." + std::to_string(j);
}

}  // namespace

FpdtBlockExecutor::FpdtBlockExecutor(nn::TransformerBlock& block, std::int64_t layer_index,
                                     FpdtEnv& env)
    : block_(&block), layer_(layer_index), env_(&env) {}

FpdtBlockExecutor::Geometry FpdtBlockExecutor::geometry(
    const std::vector<Tensor>& x_local) const {
  const int P = env_->world();
  FPDT_CHECK_EQ(static_cast<int>(x_local.size()), P) << " rank count";
  Geometry g;
  g.u = env_->cfg().chunks_per_rank;
  g.s_local = x_local[0].dim(0);
  g.d_model = x_local[0].dim(1);
  FPDT_CHECK_EQ(g.s_local % g.u, 0) << " s_local " << g.s_local << " not divisible into " << g.u
                                    << " chunks";
  g.c_local = g.s_local / g.u;
  g.c_global = g.c_local * P;
  return g;
}

std::int64_t FpdtBlockExecutor::local_pos0(int rank, std::int64_t chunk,
                                           std::int64_t c_local) const {
  // Rank-ordinal layout: local chunk i on rank r is global chunk i*P + r.
  return (chunk * env_->world() + rank) * c_local;
}

std::vector<Tensor> FpdtBlockExecutor::forward(const std::vector<Tensor>& x_local) {
  if (!env_->cfg().cache_forward_outputs) return run_forward(x_local, nullptr);
  // Cache the chunk tensors the backward pass needs, straight from the real
  // forward pass (the paper's scheme: backward then needs no attention
  // recompute and no extra All2All).
  pending_stores_.clear();
  pending_stores_.reserve(static_cast<std::size_t>(env_->world()));
  for (int r = 0; r < env_->world(); ++r) {
    pending_stores_.emplace_back(env_->device(r), env_->host(), env_->cfg().offload);
  }
  return run_forward(x_local, &pending_stores_);
}

std::int64_t FpdtBlockExecutor::cached_host_bytes() const {
  return env_->host().pool().used();
}

std::vector<Tensor> FpdtBlockExecutor::run_forward(const std::vector<Tensor>& x_local,
                                                   std::vector<ChunkStore>* stores) {
  const Geometry g = geometry(x_local);
  const int P = env_->world();
  const bool caching = stores != nullptr;

  // Transient stores for the forward-only path (k̂/v̂ of earlier chunks must
  // live somewhere even when nothing is kept for backward).
  std::vector<ChunkStore> transient;
  std::vector<ChunkStore>* kv_stores = stores;
  if (!caching) {
    transient.reserve(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      transient.emplace_back(env_->device(r), env_->host(), env_->cfg().offload);
    }
    kv_stores = &transient;
  }

  // One prefetcher per rank, driving that rank's H2D/D2H streams. Declared
  // after the stores: its destructor drains in-flight migrations while the
  // stores are still alive.
  std::deque<ChunkPrefetcher> prefetchers;
  for (int r = 0; r < P; ++r) {
    prefetchers.emplace_back((*kv_stores)[static_cast<std::size_t>(r)],
                             env_->cfg().stream_prefetch);
  }

  std::vector<Tensor> z_local;
  z_local.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) z_local.push_back(Tensor::zeros(x_local[0].shape()));

  for (std::int64_t i = 0; i < g.u; ++i) {
    // ---- QKV projection on each rank's local chunk (Fig. 4). -------------
    std::vector<Buffer> qhat(static_cast<std::size_t>(P)), khat(static_cast<std::size_t>(P)),
        vhat(static_cast<std::size_t>(P));
    {
      std::vector<Buffer> q_loc(static_cast<std::size_t>(P)), k_loc(static_cast<std::size_t>(P)),
          v_loc(static_cast<std::size_t>(P));
      for (int r = 0; r < P; ++r) {
        Device& dev = env_->device(r);
        dev.hbm().set_phase_label("attn.qkv_proj");
        Tensor x_i = x_local[static_cast<std::size_t>(r)].slice0(i * g.c_local,
                                                                 (i + 1) * g.c_local);
        Allocation x_charge(&dev.hbm(), x_i.numel() * kActBytes);  // fetched hidden chunk
        Allocation xn_charge;
        nn::AttentionLayer::Qkv qkv;
        dev.compute(span_name("proj", i), [&] {
          NormStats st1;
          Tensor xn = block_->norm1().forward(x_i, st1);
          xn_charge = Allocation(&dev.hbm(), xn.numel() * kActBytes);
          qkv = block_->attention().project_qkv(xn, local_pos0(r, i, g.c_local));
        });
        q_loc[static_cast<std::size_t>(r)] = dev.alloc(std::move(qkv.q));
        k_loc[static_cast<std::size_t>(r)] = dev.alloc(std::move(qkv.k));
        v_loc[static_cast<std::size_t>(r)] = dev.alloc(std::move(qkv.v));
      }
      // ---- Chunked All2All: scatter heads, gather sequence. --------------
      // Not in-place: send buffers (q/k/v_loc) and receive buffers coexist,
      // but both are chunk-sized — the Table-2 "6Nd" spike shrinks by u.
      std::vector<Tensor> qh = env_->pg().all_to_all_heads_to_seq(tensors_of(q_loc));
      std::vector<Tensor> kh = env_->pg().all_to_all_heads_to_seq(tensors_of(k_loc));
      std::vector<Tensor> vh = env_->pg().all_to_all_heads_to_seq(tensors_of(v_loc));
      for (int r = 0; r < P; ++r) {
        Device& dev = env_->device(r);
        dev.hbm().set_phase_label("attn.all2all_recv");
        qhat[static_cast<std::size_t>(r)] = dev.alloc(std::move(qh[static_cast<std::size_t>(r)]));
        khat[static_cast<std::size_t>(r)] = dev.alloc(std::move(kh[static_cast<std::size_t>(r)]));
        vhat[static_cast<std::size_t>(r)] = dev.alloc(std::move(vh[static_cast<std::size_t>(r)]));
      }
    }

    // ---- Online attention of q̂ᵢ against k̂₀..k̂ᵢ (Fig. 5). -----------------
    // Rank-local work between collectives: forked across threads (per-rank
    // buffers are disjoint; the shared host pool is thread-safe).
    std::vector<Buffer> ohat(static_cast<std::size_t>(P)), lse(static_cast<std::size_t>(P));
    parallel_for_ranks(P, [&](int r) {
      Device& dev = env_->device(r);
      dev.hbm().set_phase_label("attn.online");
      ChunkPrefetcher& pf = prefetchers[static_cast<std::size_t>(r)];
      const Tensor& q = qhat[static_cast<std::size_t>(r)].tensor();
      OnlineAttnState state = OnlineAttnState::create(q.dim(0), q.dim(1), q.dim(2));
      Allocation state_charge(
          &dev.hbm(), (state.acc.numel() + state.m.numel() + state.l.numel()) * kActBytes);
      // Earlier KV chunks migrate through the prefetcher: the pair for j+1
      // is issued on the H2D stream before chunk j computes (double_buffer),
      // or after it (strict), so one or two pairs are in HBM at a time —
      // exactly the inline path's residency, with the in-flight pair sitting
      // in the pool's staging counter instead of a second data charge.
      Buffer k_cur, v_cur;
      std::vector<Event> attn_evs;
      for (std::int64_t j = 0; j < i; ++j) {
        if (j == 0) {
          pf.prefetch(chunk_key("khat", layer_, 0));
          pf.prefetch(chunk_key("vhat", layer_, 0));
        }
        ChunkPrefetcher::Fetched kf = pf.acquire(chunk_key("khat", layer_, j));
        ChunkPrefetcher::Fetched vf = pf.acquire(chunk_key("vhat", layer_, j));
        k_cur = std::move(kf.buffer);
        v_cur = std::move(vf.buffer);
        if (env_->cfg().double_buffer && j + 1 < i) {
          // Prefetch of chunk j+1 overlaps the compute on chunk j. Window
          // dependency (mirrors sim/timeline.cpp): its target buffer frees
          // when the attention step on chunk j-1 retires.
          std::vector<Event> window;
          if (j >= 1) window.push_back(attn_evs[static_cast<std::size_t>(j - 1)]);
          pf.prefetch(chunk_key("khat", layer_, j + 1), /*take=*/false, window);
          pf.prefetch(chunk_key("vhat", layer_, j + 1), /*take=*/false, window);
        }
        Event ev = dev.compute(span_name("attn", i, j), [&] {
          nn::online_attn_step(state, q, k_cur.tensor(), v_cur.tensor(), /*causal=*/true,
                               i * g.c_global, j * g.c_global);
        }, {kf.ready, vf.ready});
        attn_evs.push_back(ev);
        if (!env_->cfg().double_buffer && j + 1 < i) {
          // Strict mode: the next pair is only fetched once chunk j is done.
          pf.prefetch(chunk_key("khat", layer_, j + 1), /*take=*/false, {ev});
          pf.prefetch(chunk_key("vhat", layer_, j + 1), /*take=*/false, {ev});
        }
      }
      // Diagonal chunk: k̂ᵢ/v̂ᵢ are already on device from the All2All; the
      // causal mask halves its work.
      AttentionOutput out;
      Event diag = dev.compute(span_name("attn", i, i), [&] {
        nn::online_attn_step(state, q, khat[static_cast<std::size_t>(r)].tensor(),
                             vhat[static_cast<std::size_t>(r)].tensor(), /*causal=*/true,
                             i * g.c_global, i * g.c_global);
        out = nn::online_attn_finalize(state);
      });
      ohat[static_cast<std::size_t>(r)] = dev.alloc(std::move(out.out));
      lse[static_cast<std::size_t>(r)] = dev.alloc(std::move(out.lse));

      // Cache k̂ᵢ/v̂ᵢ (and, for backward, q̂ᵢ + lse). "We offload q̂ᵢ, k̂ᵢ, v̂ᵢ
      // to the host memory once they are done for forward computation." The
      // offloads retire on the D2H stream once the diagonal step is done.
      pf.put_async(chunk_key("khat", layer_, i),
                   std::move(khat[static_cast<std::size_t>(r)]), {diag});
      pf.put_async(chunk_key("vhat", layer_, i),
                   std::move(vhat[static_cast<std::size_t>(r)]), {diag});
      if (caching) {
        pf.put_async(chunk_key("qhat", layer_, i),
                     std::move(qhat[static_cast<std::size_t>(r)]), {diag});
        pf.put_async(chunk_key("lse", layer_, i),
                     std::move(lse[static_cast<std::size_t>(r)]), {diag});
      }
    });

    // ---- All2All back + output projection + FFN. --------------------------
    std::vector<Tensor> o_loc = env_->pg().all_to_all_seq_to_heads(tensors_of(ohat));
    for (int r = 0; r < P; ++r) {
      Device& dev = env_->device(r);
      ChunkPrefetcher& pf = prefetchers[static_cast<std::size_t>(r)];
      // ô retires to the host once the All2All back has read it.
      const Event a2a_back = dev.compute_stream().record();
      if (caching) {
        pf.put_async(chunk_key("ohat", layer_, i),
                     std::move(ohat[static_cast<std::size_t>(r)]), {a2a_back});
      } else {
        ohat[static_cast<std::size_t>(r)].release();
      }
      Buffer y_buf;
      Allocation yn_charge;
      Tensor f;
      const Event post = dev.compute(span_name("post", i), [&] {
        dev.hbm().set_phase_label("attn.out_proj");
        Buffer o_buf = dev.alloc(std::move(o_loc[static_cast<std::size_t>(r)]));
        Tensor x_i =
            x_local[static_cast<std::size_t>(r)].slice0(i * g.c_local, (i + 1) * g.c_local);
        y_buf = dev.alloc(add(x_i, block_->attention().project_out(o_buf.tensor())));
        o_buf.release();

        dev.hbm().set_phase_label("ffn");
        NormStats st2;
        Tensor yn = block_->norm2().forward(y_buf.tensor(), st2);
        yn_charge = Allocation(&dev.hbm(), yn.numel() * kActBytes);
        f = block_->ffn().forward(yn, env_->cfg().ffn_chunk_multiplier, &dev.hbm());
      });
      z_local[static_cast<std::size_t>(r)]
          .slice0(i * g.c_local, (i + 1) * g.c_local)
          .copy_from(add(y_buf.tensor(), f));
      if (caching) {
        pf.put_async(chunk_key("y", layer_, i), std::move(y_buf), {post});
      }
    }
  }
  return z_local;
}

std::vector<Tensor> FpdtBlockExecutor::backward(const std::vector<Tensor>& dz_local,
                                                const std::vector<Tensor>& x_local) {
  if (env_->cfg().cache_forward_outputs && !pending_stores_.empty()) {
    // Fast path: the real forward already cached q̂/k̂/v̂/ô/lse/y.
    std::vector<ChunkStore> stores = std::move(pending_stores_);
    pending_stores_.clear();
    return backward_phases(dz_local, x_local, stores);
  }
  // Recompute path (plain activation checkpointing): re-run the chunked
  // forward, materialising and offloading the caches chunk-wise.
  std::vector<ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(env_->world()));
  for (int r = 0; r < env_->world(); ++r) {
    stores.emplace_back(env_->device(r), env_->host(), env_->cfg().offload);
  }
  run_forward(x_local, &stores);
  return backward_phases(dz_local, x_local, stores);
}

std::vector<Tensor> FpdtBlockExecutor::backward_phases(const std::vector<Tensor>& dz_local,
                                                       const std::vector<Tensor>& x_local,
                                                       std::vector<ChunkStore>& stores) {
  const Geometry g = geometry(x_local);
  const int P = env_->world();

  // One prefetcher per rank for both phases. With cfg.double_buffer the
  // backward prefetches the next chunk's consumables one iteration ahead
  // (Fig. 7 double-buffers the backward too) at the cost of one extra
  // resident chunk set; without it every fetch is issued at its point of
  // use (exposed transfer time in the report, inline-identical residency).
  std::deque<ChunkPrefetcher> prefetchers;
  for (int r = 0; r < P; ++r) {
    prefetchers.emplace_back(stores[static_cast<std::size_t>(r)], env_->cfg().stream_prefetch);
  }
  const bool ahead = env_->cfg().double_buffer;

  std::vector<Tensor> dx_local;
  dx_local.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) dx_local.push_back(Tensor::zeros(x_local[0].shape()));

  // ---- Phase A: FFN / norm2 / Wo backward per chunk ("We first calculate
  // the gradients in FFN, then the attention", Fig. 13). Produces the
  // attention-output gradients dôᵢ and softmax row statistics Dᵢ.
  std::vector<Event> phase_a_done(static_cast<std::size_t>(P));
  for (std::int64_t i = 0; i < g.u; ++i) {
    std::vector<Buffer> dy_tot(static_cast<std::size_t>(P));
    std::vector<Buffer> ohat_i(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      Device& dev = env_->device(r);
      ChunkPrefetcher& pf = prefetchers[static_cast<std::size_t>(r)];
      dev.hbm().set_phase_label("bwd.ffn");
      Tensor dz_i =
          dz_local[static_cast<std::size_t>(r)].slice0(i * g.c_local, (i + 1) * g.c_local);
      Allocation dz_charge(&dev.hbm(), dz_i.numel() * kActBytes);
      if (ahead && i == 0) {
        pf.prefetch(chunk_key("y", layer_, 0), /*take=*/true);
        pf.prefetch(chunk_key("ohat", layer_, 0), /*take=*/true);
      }
      ChunkPrefetcher::Fetched yf = pf.acquire(chunk_key("y", layer_, i), /*take=*/true);
      ChunkPrefetcher::Fetched of = pf.acquire(chunk_key("ohat", layer_, i), /*take=*/true);
      Buffer y_buf = std::move(yf.buffer);
      ohat_i[static_cast<std::size_t>(r)] = std::move(of.buffer);
      if (ahead && i + 1 < g.u) {
        // Next chunk's y/ô fetch overlaps this chunk's FFN backward.
        pf.prefetch(chunk_key("y", layer_, i + 1), /*take=*/true,
                    {phase_a_done[static_cast<std::size_t>(r)]});
        pf.prefetch(chunk_key("ohat", layer_, i + 1), /*take=*/true,
                    {phase_a_done[static_cast<std::size_t>(r)]});
      }
      Allocation yn_charge;
      Tensor dy;
      dev.compute(span_name("bwd.ffn", i), [&] {
        NormStats st2;
        Tensor yn = block_->norm2().forward(y_buf.tensor(), st2);
        yn_charge = Allocation(&dev.hbm(), yn.numel() * kActBytes);
        Tensor dyn =
            block_->ffn().backward(dz_i, yn, env_->cfg().ffn_chunk_multiplier, &dev.hbm());
        dy = add(dz_i, block_->norm2().backward(dyn, y_buf.tensor(), st2));
      }, {yf.ready, of.ready});
      // Residual path contribution to dx.
      Tensor dx_view =
          dx_local[static_cast<std::size_t>(r)].slice0(i * g.c_local, (i + 1) * g.c_local);
      add_(dx_view, dy);
      dy_tot[static_cast<std::size_t>(r)] = dev.alloc(std::move(dy));
    }
    // Recover the rank-local attention output to backprop Wo, then return
    // its gradient to the global (head-sharded) layout for phase B.
    std::vector<Tensor> o_loc = env_->pg().all_to_all_seq_to_heads(tensors_of(ohat_i));
    std::vector<Buffer> dao(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      Device& dev = env_->device(r);
      dev.hbm().set_phase_label("bwd.out_proj");
      dev.compute(span_name("bwd.out_proj", i), [&] {
        dao[static_cast<std::size_t>(r)] = dev.alloc(block_->attention().backward_out(
            dy_tot[static_cast<std::size_t>(r)].tensor(), o_loc[static_cast<std::size_t>(r)]));
      });
      dy_tot[static_cast<std::size_t>(r)].release();
    }
    std::vector<Tensor> dohat = env_->pg().all_to_all_heads_to_seq(tensors_of(dao));
    for (int r = 0; r < P; ++r) {
      Device& dev = env_->device(r);
      ChunkPrefetcher& pf = prefetchers[static_cast<std::size_t>(r)];
      // dô and D retire to the host once the All2All has delivered dô.
      const Event back = dev.compute_stream().record();
      Tensor D = nn::online_attn_backward_D(ohat_i[static_cast<std::size_t>(r)].tensor(),
                                            dohat[static_cast<std::size_t>(r)]);
      ohat_i[static_cast<std::size_t>(r)].release();
      pf.put_async(chunk_key("dohat", layer_, i),
                   dev.alloc(std::move(dohat[static_cast<std::size_t>(r)])), {back});
      pf.put_async(chunk_key("D", layer_, i), dev.alloc(std::move(D)), {back});
      phase_a_done[static_cast<std::size_t>(r)] = back;
    }
  }

  // ---- Phase B: the nested double-buffered attention backward (Fig. 7).
  // Outer loop over KV chunks j, inner over query chunks i >= j.
  std::vector<Event> step_ev(static_cast<std::size_t>(P));  // last inner attn step
  for (std::int64_t j = 0; j < g.u; ++j) {
    std::vector<Buffer> k_j(static_cast<std::size_t>(P)), v_j(static_cast<std::size_t>(P));
    std::vector<Buffer> dk_j(static_cast<std::size_t>(P)), dv_j(static_cast<std::size_t>(P));
    std::vector<Buffer> dq_final(static_cast<std::size_t>(P));
    std::vector<std::array<Event, 2>> kv_ready(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      Device& dev = env_->device(r);
      ChunkPrefetcher& pf = prefetchers[static_cast<std::size_t>(r)];
      dev.hbm().set_phase_label("bwd.attn");
      if (ahead && j == 0) {
        pf.prefetch(chunk_key("khat", layer_, 0), /*take=*/true);
        pf.prefetch(chunk_key("vhat", layer_, 0), /*take=*/true);
      }
      ChunkPrefetcher::Fetched kf = pf.acquire(chunk_key("khat", layer_, j), /*take=*/true);
      ChunkPrefetcher::Fetched vf = pf.acquire(chunk_key("vhat", layer_, j), /*take=*/true);
      k_j[static_cast<std::size_t>(r)] = std::move(kf.buffer);
      v_j[static_cast<std::size_t>(r)] = std::move(vf.buffer);
      kv_ready[static_cast<std::size_t>(r)] = {kf.ready, vf.ready};
      if (ahead && j + 1 < g.u) {
        // The next KV pair streams in while this outer iteration computes.
        pf.prefetch(chunk_key("khat", layer_, j + 1), /*take=*/true,
                    {step_ev[static_cast<std::size_t>(r)]});
        pf.prefetch(chunk_key("vhat", layer_, j + 1), /*take=*/true,
                    {step_ev[static_cast<std::size_t>(r)]});
      }
      dk_j[static_cast<std::size_t>(r)] =
          dev.alloc(Tensor::zeros(k_j[static_cast<std::size_t>(r)].tensor().shape()));
      dv_j[static_cast<std::size_t>(r)] =
          dev.alloc(Tensor::zeros(v_j[static_cast<std::size_t>(r)].tensor().shape()));
    }
    for (std::int64_t i = j; i < g.u; ++i) {
      const bool last_use = (i == j);  // chunk i's q-side data retires at outer j == i
      parallel_for_ranks(P, [&](int r) {
        Device& dev = env_->device(r);
        ChunkPrefetcher& pf = prefetchers[static_cast<std::size_t>(r)];
        ChunkPrefetcher::Fetched qf = pf.acquire(chunk_key("qhat", layer_, i), last_use);
        ChunkPrefetcher::Fetched dof = pf.acquire(chunk_key("dohat", layer_, i), last_use);
        ChunkPrefetcher::Fetched lsef = pf.acquire(chunk_key("lse", layer_, i), last_use);
        ChunkPrefetcher::Fetched Df = pf.acquire(chunk_key("D", layer_, i), last_use);
        Buffer q_i = std::move(qf.buffer);
        Buffer do_i = std::move(dof.buffer);
        Buffer lse_i = std::move(lsef.buffer);
        Buffer D_i = std::move(Df.buffer);
        // dq̂ᵢ accumulates across outer iterations; it lives in the store
        // (host memory when offloading) between visits.
        Buffer dq_i = (j == 0)
                          ? dev.alloc(Tensor::zeros(q_i.tensor().shape()))
                          : pf.acquire(chunk_key("dqhat", layer_, i), /*take=*/true).buffer;
        std::vector<Event> waits = {qf.ready, dof.ready, lsef.ready, Df.ready};
        if (i == j) {
          waits.push_back(kv_ready[static_cast<std::size_t>(r)][0]);
          waits.push_back(kv_ready[static_cast<std::size_t>(r)][1]);
        }
        Event ev = dev.compute(span_name("bwd.attn", i, j), [&] {
          nn::online_attn_backward_step(
              q_i.tensor(), k_j[static_cast<std::size_t>(r)].tensor(),
              v_j[static_cast<std::size_t>(r)].tensor(), do_i.tensor(), lse_i.tensor(),
              D_i.tensor(), /*causal=*/true, i * g.c_global, j * g.c_global, dq_i.tensor(),
              dk_j[static_cast<std::size_t>(r)].tensor(),
              dv_j[static_cast<std::size_t>(r)].tensor());
        }, std::move(waits));
        if (i == j) {
          // "For dq0, we get its final result after the first inner loop."
          dq_final[static_cast<std::size_t>(r)] = std::move(dq_i);
        } else {
          pf.put_async(chunk_key("dqhat", layer_, i), std::move(dq_i), {ev});
        }
        step_ev[static_cast<std::size_t>(r)] = ev;
      });
    }
    // dk̂ⱼ/dv̂ⱼ are final after the outer iteration; All2All the finals back
    // to their home ranks and run the projection + norm1 backward there.
    std::vector<Tensor> dq_loc = env_->pg().all_to_all_seq_to_heads(tensors_of(dq_final));
    std::vector<Tensor> dk_loc = env_->pg().all_to_all_seq_to_heads(tensors_of(dk_j));
    std::vector<Tensor> dv_loc = env_->pg().all_to_all_seq_to_heads(tensors_of(dv_j));
    for (int r = 0; r < P; ++r) {
      Device& dev = env_->device(r);
      dev.hbm().set_phase_label("bwd.qkv_proj");
      dq_final[static_cast<std::size_t>(r)].release();
      dk_j[static_cast<std::size_t>(r)].release();
      dv_j[static_cast<std::size_t>(r)].release();
      k_j[static_cast<std::size_t>(r)].release();
      v_j[static_cast<std::size_t>(r)].release();
      dev.compute(span_name("bwd.qkv_proj", j), [&] {
        Tensor x_j =
            x_local[static_cast<std::size_t>(r)].slice0(j * g.c_local, (j + 1) * g.c_local);
        NormStats st1;
        Tensor xn = block_->norm1().forward(x_j, st1);
        Tensor dxn = block_->attention().backward_qkv(
            dq_loc[static_cast<std::size_t>(r)], dk_loc[static_cast<std::size_t>(r)],
            dv_loc[static_cast<std::size_t>(r)], xn, local_pos0(r, j, g.c_local));
        Tensor dx_view =
            dx_local[static_cast<std::size_t>(r)].slice0(j * g.c_local, (j + 1) * g.c_local);
        add_(dx_view, block_->norm1().backward(dxn, x_j, st1));
      });
    }
  }
  return dx_local;
}

}  // namespace fpdt::core
