#include "core/fpdt_block.h"

#include <algorithm>
#include <deque>
#include <map>
#include <ranges>
#include <set>
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

using Key = std::pair<Buf, std::int64_t>;  // (buffer, chunk)

// ChunkStore key prefix of each Buf.
constexpr const char* kStoreName[] = {"qhat", "khat",  "vhat", "ohat",  "lse",  "y",
                                      "dohat", "D",    "dqhat", "dkhat", "dvhat"};
static_assert(std::size(kStoreName) == static_cast<std::size_t>(Buf::kDvhat) + 1);

// The HBM phase label (Fig. 13) an op's charges are recorded under; null
// where the op keeps the current one. A fetch takes its consumer's.
const char* phase_of(const ScheduleOp& op) {
  switch (op.kind) {
    case OpKind::kQkvProject: return "attn.qkv_proj";
    case OpKind::kAll2AllQkv: return "attn.all2all_recv";
    case OpKind::kFetchKv: return op.backward ? "bwd.attn" : "attn.online";
    case OpKind::kAttnStep: return "attn.online";
    case OpKind::kOutProjFfn: return "attn.out_proj";  // its FFN half records under "ffn"
    case OpKind::kFetchYO:
    case OpKind::kFfnBackward: return "bwd.ffn";
    case OpKind::kOutProjBackward: return "bwd.out_proj";
    case OpKind::kFetchQGrad:
    case OpKind::kAttnBwdStep: return "bwd.attn";
    case OpKind::kQkvBackward: return "bwd.qkv_proj";
    default: return nullptr;
  }
}

bool is_attention(const ScheduleOp& op) {
  return op.kind == OpKind::kAttnStep || op.kind == OpKind::kAttnBwdStep;
}
bool is_transfer(const ScheduleOp& op) {
  return op.stream == kStreamH2D || op.stream == kStreamD2H;
}

}  // namespace

// One rank's state while a list runs.
struct FpdtBlockExecutor::Lane {
  Lane(Device& device, ChunkStore& store, bool streams, std::int64_t layer, std::size_t n_ops)
      : dev(&device), pf(store, streams), layer(layer), done(n_ops) {}

  Device* dev;
  ChunkPrefetcher pf;
  std::int64_t layer;
  std::map<Key, Buffer> live;   // device chunk buffers, in either layout
  std::set<Key> in_flight;      // prefetched, not yet acquired
  std::vector<Key> kv_fetched;  // fetched k̂/v̂ copies in the table, oldest first
  std::map<Key, Tensor> local;  // seq_to_heads results, for the next compute op
  Buffer dy;                    // phase A: the FFN backward's dy, for Wo's
  OnlineAttnState state;        // forward: the current chunk's online softmax
  Allocation state_charge;
  std::vector<Event> done;  // per op: its completion event

  std::string name(Key key) const {
    return chunk_key(kStoreName[static_cast<int>(key.first)], layer, key.second);
  }

  // Completes the fetch of `key` into the table.
  Event acquire(Key key, bool take = false, std::vector<Event> waits = {}) {
    ChunkPrefetcher::Fetched f = pf.acquire(name(key), take, std::move(waits));
    in_flight.erase(key);
    live[key] = std::move(f.buffer);
    if (key.first == Buf::kKhat || key.first == Buf::kVhat) kv_fetched.push_back(key);
    return f.ready;
  }
  // A fetched k̂/v̂ chunk takes the slot of the previous one in its series,
  // which retires.
  void reuse_kv_slots() {
    std::map<Buf, std::int64_t> newest;
    for (const Key& key : kv_fetched) newest[key.first] = std::max(newest[key.first], key.second);
    std::erase_if(kv_fetched, [&](const Key& key) {
      if (key.second == newest[key.first]) return false;
      live.erase(key);
      return true;
    });
  }
  Buffer& get(Key key) {
    if (in_flight.contains(key)) acquire(key);
    auto it = live.find(key);
    FPDT_CHECK(it != live.end()) << " chunk " << name(key) << " is not on device";
    return it->second;
  }
  Buffer pop(Key key) {
    Buffer b = std::move(get(key));
    live.erase(key);
    return b;
  }
  Tensor pop_local(Key key) {
    auto node = local.extract(key);
    FPDT_CHECK(!node.empty()) << " no local-layout " << name(key);
    return std::move(node.mapped());
  }
};

struct FpdtBlockExecutor::Run {
  const std::vector<ScheduleOp>& ops;
  ChunkGeometry g;
  const std::vector<Tensor>& x;
  const std::vector<Tensor>* dz;
  bool caching;  // the forward part offloads q̂/lse/ô/y for a backward
  std::vector<Tensor> z, dx;
  // Per fetch op: per buffer, whether the fetch removes the host copy (no
  // later fetch reads it before it is written again), and whether the op
  // is acquired on the spot (its consumer is the next compute op).
  std::vector<std::vector<bool>> take;
  std::vector<bool> at_use;
  std::deque<Lane> lanes;

  Tensor chunk(const std::vector<Tensor>& t, int r, std::int64_t i) const {
    return t[static_cast<std::size_t>(r)].slice0(i * g.c_local, (i + 1) * g.c_local);
  }
  // RoPE position of local chunk i on rank r: rank-ordinal layout puts it
  // at global chunk i*P + r.
  std::int64_t pos0(int r, std::int64_t i) const { return i * g.c_global + r * g.c_local; }
  Lane& lane(int r) { return lanes[static_cast<std::size_t>(r)]; }
};

FpdtBlockExecutor::FpdtBlockExecutor(nn::TransformerBlock& block, std::int64_t layer_index,
                                     FpdtEnv& env)
    : block_(&block), layer_(layer_index), env_(&env) {}

std::vector<ChunkStore> FpdtBlockExecutor::make_stores() {
  std::vector<ChunkStore> stores;
  stores.reserve(static_cast<std::size_t>(env_->world()));
  for (int r = 0; r < env_->world(); ++r) {
    stores.emplace_back(env_->device(r), env_->host(), env_->cfg().offload);
  }
  return stores;
}

std::vector<Tensor> FpdtBlockExecutor::forward(const std::vector<Tensor>& x_local) {
  const FpdtConfig& c = env_->cfg();
  const ChunkSchedule sched = ChunkSchedule::forward(c.chunks_per_rank, /*offload=*/true,
                                                     c.double_buffer, c.cache_forward_outputs);
  if (c.cache_forward_outputs) {
    // Cache the chunk tensors the backward pass needs, straight from the
    // real forward pass (the paper's scheme: backward then needs no
    // attention recompute and no extra All2All).
    pending_stores_ = make_stores();
    return execute(sched, pending_stores_, x_local, nullptr);
  }
  // Earlier chunks' k̂/v̂ must live somewhere even when nothing is kept.
  std::vector<ChunkStore> transient = make_stores();
  return execute(sched, transient, x_local, nullptr);
}

std::int64_t FpdtBlockExecutor::cached_host_bytes() const {
  return env_->host().pool().used();
}

std::vector<Tensor> FpdtBlockExecutor::backward(const std::vector<Tensor>& dz_local,
                                                const std::vector<Tensor>& x_local) {
  const FpdtConfig& c = env_->cfg();
  // Without the forward's caches (plain activation checkpointing) the list
  // re-runs the chunked forward first, caching chunk-wise.
  const bool recompute = !c.cache_forward_outputs || pending_stores_.empty();
  std::vector<ChunkStore> stores = recompute ? make_stores() : std::move(pending_stores_);
  pending_stores_.clear();
  return execute(ChunkSchedule::backward(c.chunks_per_rank, /*offload=*/true, c.double_buffer,
                                         recompute),
                 stores, x_local, &dz_local);
}

std::vector<Tensor> FpdtBlockExecutor::execute(const ChunkSchedule& sched,
                                               std::vector<ChunkStore>& stores,
                                               const std::vector<Tensor>& x_local,
                                               const std::vector<Tensor>* dz_local) {
  const int P = env_->world();
  FPDT_CHECK_EQ(static_cast<int>(x_local.size()), P) << " rank count";
  const std::vector<ScheduleOp>& ops = sched.ops();
  const nn::AttentionLayer& attn = block_->attention();
  const ChunkGeometry g = chunk_geometry(P, x_local[0].dim(0), env_->cfg().chunks_per_rank,
                                         x_local[0].dim(1), attn.n_head(), attn.n_kv_head());
  Run run{ops, g, x_local, dz_local, sched.count(OpKind::kOffloadOut) > 0, {}, {},
          std::vector<std::vector<bool>>(ops.size()), std::vector<bool>(ops.size()), {}};
  std::map<Key, bool> fetched_next;  // the next transfer of (buffer, chunk) is a fetch
  for (std::size_t k = ops.size(); k-- > 0;) {
    if (!is_transfer(ops[k])) continue;
    const bool fetch = ops[k].stream == kStreamH2D;
    for (Buf b : ops[k].bufs) {
      bool& next = fetched_next[{b, ops[k].buffer_chunk()}];
      if (fetch) run.take[k].push_back(ops[k].backward && !next);
      next = fetch;
    }
    std::size_t n = k + 1;
    while (n < ops.size() && ops[n].stream != kStreamCompute) ++n;
    run.at_use[k] = n < ops.size() && std::ranges::count(ops[n].deps, k) > 0;
  }
  for (int r = 0; r < P; ++r) {
    if (!ops.front().backward) run.z.push_back(Tensor::zeros(x_local[0].shape()));
    if (dz_local != nullptr) run.dx.push_back(Tensor::zeros(x_local[0].shape()));
    run.lanes.emplace_back(env_->device(r), stores[static_cast<std::size_t>(r)],
                           env_->cfg().stream_prefetch, layer_, ops.size());
  }

  for (std::size_t k = 0; k < ops.size();) {
    // Attention steps with the transfers around them are rank-local: one
    // fork across the rank workers (per-rank buffers are disjoint; the
    // shared host pool is thread-safe). Projections, FFN, Wo and the
    // collectives run on the driver in rank order, because every rank
    // accumulates into the shared weight gradients.
    std::size_t end = k;
    bool attention = false;
    while (end < ops.size() && (is_attention(ops[end]) || is_transfer(ops[end]))) {
      attention |= is_attention(ops[end++]);
    }
    if (attention) {
      parallel_for_ranks(P, [&](int r) {
        for (std::size_t q = k; q < end; ++q) step(run, q, r);
      });
    } else {
      end = std::max(end, k + 1);
      for (std::size_t q = k; q < end; ++q) {
        if (ops[q].stream == kStreamComm) {
          collective(run, q);
        } else {
          for (int r = 0; r < P; ++r) step(run, q, r);
        }
      }
    }
    k = end;
  }
  for (const Lane& lane : run.lanes) {
    FPDT_CHECK(lane.live.empty() && lane.local.empty()) << " chunk buffers left after the list";
  }
  return std::move(dz_local != nullptr ? run.dx : run.z);
}

void FpdtBlockExecutor::step(Run& run, std::size_t k, int r) {
  const ScheduleOp& op = run.ops[k];
  Lane& lane = run.lane(r);
  Device& dev = *lane.dev;
  const std::int64_t i = op.i, j = op.j, c_global = run.g.c_global;
  if (const char* phase = phase_of(op)) dev.hbm().set_phase_label(phase);
  // A compute op first completes the fetches it depends on.
  if (op.stream == kStreamCompute) {
    for (std::size_t d : op.deps) {
      if (run.ops[d].stream != kStreamH2D) continue;
      for (Buf b : run.ops[d].bufs) lane.get({b, run.ops[d].buffer_chunk()});
    }
    lane.reuse_kv_slots();
  }
  std::vector<Event> waits;
  for (std::size_t d : op.deps) if (lane.done[d].valid()) waits.push_back(lane.done[d]);
  Event& done = lane.done[k];

  switch (op.kind) {
    case OpKind::kFetchKv:
    case OpKind::kFetchYO:
    case OpKind::kFetchQGrad: {
      // A fetched chunk is acquired before the next fetch in its series is
      // issued, so each series holds at most one chunk in flight.
      for (Key key : std::vector<Key>(lane.in_flight.begin(), lane.in_flight.end())) {
        if (std::ranges::count(op.bufs, key.first) > 0) lane.acquire(key);
      }
      lane.reuse_kv_slots();
      for (std::size_t n = 0; n < op.bufs.size(); ++n) {
        const Key key{op.bufs[n], op.buffer_chunk()};
        if (run.at_use[k]) {
          done = lane.acquire(key, run.take[k][n], waits);
        } else {
          done = lane.pf.prefetch(lane.name(key), run.take[k][n], waits);
          lane.in_flight.insert(key);
        }
      }
      break;
    }
    case OpKind::kOffloadKv:
    case OpKind::kOffloadOut:
    case OpKind::kOffloadY:
    case OpKind::kOffloadDoD:
    case OpKind::kOffloadDq:
      for (Buf b : op.bufs) done = lane.pf.put_async(lane.name({b, i}), lane.pop({b, i}), waits);
      break;

    case OpKind::kQkvProject: {
      const Tensor x_i = run.chunk(run.x, r, i);
      Allocation x_charge(&dev.hbm(), x_i.numel() * kActBytes);  // fetched hidden chunk
      Allocation xn_charge;
      nn::AttentionLayer::Qkv qkv;
      done = dev.compute(op.label(), [&] {
        NormStats st1;
        Tensor xn = block_->norm1().forward(x_i, st1);
        xn_charge = Allocation(&dev.hbm(), xn.numel() * kActBytes);
        qkv = block_->attention().project_qkv(xn, run.pos0(r, i));
      }, waits);
      lane.live[{Buf::kQhat, i}] = dev.alloc(std::move(qkv.q));
      lane.live[{Buf::kKhat, i}] = dev.alloc(std::move(qkv.k));
      lane.live[{Buf::kVhat, i}] = dev.alloc(std::move(qkv.v));
      break;
    }
    case OpKind::kAttnStep: {
      // Online attention of q̂ᵢ against k̂ⱼ (Fig. 5); the diagonal chunk is
      // fresh from the All2All and its causal mask halves the work.
      const Tensor& q = lane.get({Buf::kQhat, i}).tensor();
      if (j == 0) {
        lane.state = OnlineAttnState::create(q.dim(0), q.dim(1), q.dim(2));
        lane.state_charge = Allocation(
            &dev.hbm(),
            (lane.state.acc.numel() + lane.state.m.numel() + lane.state.l.numel()) * kActBytes);
      }
      const Tensor& kt = lane.get({Buf::kKhat, j}).tensor();
      const Tensor& vt = lane.get({Buf::kVhat, j}).tensor();
      AttentionOutput out;
      done = dev.compute(op.label(), [&] {
        nn::online_attn_step(lane.state, q, kt, vt, /*causal=*/true, i * c_global, j * c_global);
        if (j == i) out = nn::online_attn_finalize(lane.state);
      }, waits);
      if (j == i) {
        // Chunk i's attention is final: ô and lse join the table, and the
        // fetched KV copies and the softmax state retire.
        lane.live[{Buf::kOhat, i}] = dev.alloc(std::move(out.out));
        lane.live[{Buf::kLse, i}] = dev.alloc(std::move(out.lse));
        for (const Key& key : std::views::reverse(lane.kv_fetched)) lane.live.erase(key);
        lane.kv_fetched.clear();
        lane.state_charge.release();
        // Only a backward reads q̂ᵢ and lseᵢ again.
        if (!run.caching) for (Buf b : {Buf::kLse, Buf::kQhat}) lane.live.erase({b, i});
      }
      break;
    }
    case OpKind::kOutProjFfn: {
      Buffer& y = lane.live[{Buf::kY, i}];
      Allocation yn_charge;
      Tensor f;
      done = dev.compute(op.label(), [&] {
        Buffer o = dev.alloc(lane.pop_local({Buf::kOhat, i}));
        y = dev.alloc(add(run.chunk(run.x, r, i), block_->attention().project_out(o.tensor())));
        o.release();
        dev.hbm().set_phase_label("ffn");
        NormStats st2;
        Tensor yn = block_->norm2().forward(y.tensor(), st2);
        yn_charge = Allocation(&dev.hbm(), yn.numel() * kActBytes);
        f = block_->ffn().forward(yn, env_->cfg().ffn_chunk_multiplier, &dev.hbm());
      }, waits);
      run.chunk(run.z, r, i).copy_from(add(y.tensor(), f));
      yn_charge.release();
      if (!run.caching) lane.live.erase({Buf::kY, i});  // nothing feeds a backward
      break;
    }
    case OpKind::kFfnBackward: {
      // "We first calculate the gradients in FFN, then the attention."
      const Tensor dz_i = run.chunk(*run.dz, r, i);
      Allocation dz_charge(&dev.hbm(), dz_i.numel() * kActBytes);
      Buffer y = lane.pop({Buf::kY, i});
      Allocation yn_charge;
      Tensor dy;
      done = dev.compute(op.label(), [&] {
        NormStats st2;
        Tensor yn = block_->norm2().forward(y.tensor(), st2);
        yn_charge = Allocation(&dev.hbm(), yn.numel() * kActBytes);
        Tensor dyn =
            block_->ffn().backward(dz_i, yn, env_->cfg().ffn_chunk_multiplier, &dev.hbm());
        dy = add(dz_i, block_->norm2().backward(dyn, y.tensor(), st2));
      }, waits);
      Tensor dx_view = run.chunk(run.dx, r, i);
      add_(dx_view, dy);  // residual path
      lane.dy = dev.alloc(std::move(dy));
      break;
    }
    case OpKind::kOutProjBackward:
      done = dev.compute(op.label(), [&] {
        lane.live[{Buf::kDohat, i}] = dev.alloc(
            block_->attention().backward_out(lane.dy.tensor(), lane.pop_local({Buf::kOhat, i})));
      }, waits);
      lane.dy.release();
      break;
    case OpKind::kAttnBwdStep: {
      // Fig. 7's inner step: dk̂ⱼ/dv̂ⱼ accumulate over query chunks i ≥ j,
      // dq̂ᵢ over outer iterations (zero at the first visit).
      const Buffer& kb = lane.get({Buf::kKhat, j});
      const Buffer& vb = lane.get({Buf::kVhat, j});
      Buffer& dk = lane.live[{Buf::kDkhat, j}];
      if (!dk.defined()) dk = dev.alloc(Tensor::zeros(kb.tensor().shape()));
      Buffer& dv = lane.live[{Buf::kDvhat, j}];
      if (!dv.defined()) dv = dev.alloc(Tensor::zeros(vb.tensor().shape()));
      const Tensor& q = lane.get({Buf::kQhat, i}).tensor();
      Buffer& dq = lane.live[{Buf::kDqhat, i}];
      if (!dq.defined()) dq = dev.alloc(Tensor::zeros(q.shape()));
      done = dev.compute(op.label(), [&] {
        nn::online_attn_backward_step(
            q, kb.tensor(), vb.tensor(), lane.get({Buf::kDohat, i}).tensor(),
            lane.get({Buf::kLse, i}).tensor(), lane.get({Buf::kD, i}).tensor(), /*causal=*/true,
            i * c_global, j * c_global, dq.tensor(), dk.tensor(), dv.tensor());
      }, waits);
      // The pair's q-side inputs retire. dq̂ᵢ stays: parked by the next op,
      // or final at i == j ("we get its final result after the first inner
      // loop").
      for (Buf b : {Buf::kD, Buf::kLse, Buf::kDohat, Buf::kQhat}) lane.live.erase({b, i});
      break;
    }
    case OpKind::kQkvBackward:
      // dq̂ⱼ/dk̂ⱼ/dv̂ⱼ are home; chunk j's global-layout buffers retire.
      for (Buf b : {Buf::kDqhat, Buf::kDkhat, Buf::kDvhat, Buf::kKhat, Buf::kVhat}) {
        lane.live.erase({b, i});
      }
      done = dev.compute(op.label(), [&] {
        const Tensor x_j = run.chunk(run.x, r, i);
        NormStats st1;
        Tensor xn = block_->norm1().forward(x_j, st1);
        Tensor dq = lane.pop_local({Buf::kDqhat, i});
        Tensor dk = lane.pop_local({Buf::kDkhat, i});
        Tensor dv = lane.pop_local({Buf::kDvhat, i});
        Tensor dxn =
            block_->attention().backward_qkv(dq, dk, dv, xn, run.pos0(r, i));
        Tensor dx_view = run.chunk(run.dx, r, i);
        add_(dx_view, block_->norm1().backward(dxn, x_j, st1));
      }, waits);
      break;
    default:
      FPDT_CHECK(false) << " no handler for " << op.debug();
  }
}

void FpdtBlockExecutor::collective(Run& run, std::size_t k) {
  const ScheduleOp& op = run.ops[k];
  const int P = env_->world();
  const std::int64_t c = op.i;
  // The projection's q/k/v and Wo's dô are in the local layout: they
  // scatter heads and gather sequence. Global-layout chunks go home.
  const bool to_seq =
      op.kind == OpKind::kAll2AllQkv || op.bufs == std::vector<Buf>{Buf::kDohat};
  std::vector<std::vector<Tensor>> out;
  for (Buf b : op.bufs) {
    std::vector<Tensor> in;
    for (int r = 0; r < P; ++r) in.push_back(run.lane(r).get({b, c}).tensor());
    out.push_back(to_seq ? env_->pg().all_to_all_heads_to_seq(in)
                         : env_->pg().all_to_all_seq_to_heads(in));
  }
  for (int r = 0; r < P; ++r) {
    Lane& lane = run.lane(r);
    Device& dev = *lane.dev;
    if (const char* phase = phase_of(op)) dev.hbm().set_phase_label(phase);
    // A transfer that waits on a collective waits on the compute stream
    // after it (the group prices collectives there).
    lane.done[k] = dev.compute_stream().record();
    const auto mine = [&](std::size_t n) { return std::move(out[n][static_cast<std::size_t>(r)]); };
    if (!to_seq) {
      for (std::size_t n = 0; n < op.bufs.size(); ++n) lane.local[{op.bufs[n], c}] = mine(n);
      if (op.kind == OpKind::kAll2AllOut && !op.backward && !run.caching) {
        lane.live.erase({Buf::kOhat, c});  // cached nowhere: ô retires once it is home
      }
      continue;
    }
    // dô's All2All also yields the softmax statistic D = rowsum(dô ∘ ô);
    // ô retires with it.
    Tensor D;
    if (op.kind == OpKind::kAll2AllGrad) {
      D = nn::online_attn_backward_D(lane.get({Buf::kOhat, c}).tensor(),
                                    out[0][static_cast<std::size_t>(r)]);
      lane.live.erase({Buf::kOhat, c});
    }
    // Not in place: the send buffers retire only once every receive buffer
    // is charged, but both are chunk-sized — the Table-2 "6Nd" spike
    // shrinks by u.
    std::vector<Buffer> sent;
    for (std::size_t n = 0; n < op.bufs.size(); ++n) {
      sent.push_back(std::exchange(lane.live[{op.bufs[n], c}], dev.alloc(mine(n))));
    }
    while (!sent.empty()) sent.pop_back();
    if (D.defined()) lane.live[{Buf::kD, c}] = dev.alloc(std::move(D));
  }
}

}  // namespace fpdt::core
