#include "core/chunk_schedule.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>

#include "common/check.h"

namespace fpdt::core {

namespace {

struct KindNames {
  const char* debug;  // to_string() name
  const char* label;  // span-label prefix
};

KindNames names_of(OpKind kind) {
  switch (kind) {
    case OpKind::kQkvProject: return {"qkv_project", "proj"};
    case OpKind::kAll2AllQkv: return {"all2all_qkv", "a2a.qkv"};
    case OpKind::kFetchKv: return {"fetch_kv", "fetch.kv"};
    case OpKind::kAttnStep: return {"attn_step", "attn"};
    case OpKind::kOffloadKv: return {"offload_kv", "offload.kv"};
    case OpKind::kAll2AllOut: return {"all2all_out", "a2a.o"};
    case OpKind::kOffloadOut: return {"offload_out", "offload.o"};
    case OpKind::kOutProjFfn: return {"out_proj_ffn", "post"};
    case OpKind::kOffloadY: return {"offload_y", "offload.y"};
    case OpKind::kFetchYO: return {"fetch_yo", "fetch.yo"};
    case OpKind::kFfnBackward: return {"ffn_backward", "bwd.ffn"};
    case OpKind::kOutProjBackward: return {"out_proj_backward", "bwd.out_proj"};
    case OpKind::kAll2AllGrad: return {"all2all_grad", "a2a.grad"};
    case OpKind::kOffloadDoD: return {"offload_dod", "offload.dod"};
    case OpKind::kFetchQGrad: return {"fetch_qgrad", "fetch.qgrad"};
    case OpKind::kAttnBwdStep: return {"attn_bwd_step", "bwd.attn"};
    case OpKind::kOffloadDq: return {"offload_dq", "offload.dq"};
    case OpKind::kQkvBackward: return {"qkv_backward", "bwd.qkv_proj"};
  }
  return {"?", "?"};
}

}  // namespace

std::int64_t ChunkGeometry::bytes(Buf buf) const {
  switch (buf) {
    case Buf::kY: return c_local * d_model * 2;
    case Buf::kLse: case Buf::kD: return c_global * heads * 2;
    case Buf::kKhat: case Buf::kVhat: case Buf::kDkhat: case Buf::kDvhat:
      return c_global * kv_heads * head_dim * 2;
    default: return c_global * heads * head_dim * 2;  // q̂, ô, dô, dq̂
  }
}

ChunkGeometry chunk_geometry(int world, std::int64_t s_local, std::int64_t u,
                             std::int64_t d_model, std::int64_t n_head, std::int64_t n_kv_head) {
  FPDT_CHECK_EQ(s_local % u, 0) << " s_local " << s_local << " not divisible into " << u
                                << " chunks";
  ChunkGeometry g;
  g.c_local = s_local / u;
  g.c_global = g.c_local * world;
  g.d_model = d_model;
  g.heads = std::max<std::int64_t>(1, n_head / world);
  g.kv_heads = std::max<std::int64_t>(1, n_kv_head / world);
  g.head_dim = d_model / n_head;
  return g;
}

std::string ScheduleOp::label() const {
  std::string s = names_of(kind).label;
  if (i >= 0) s += "." + std::to_string(i);
  if (j >= 0) s += "." + std::to_string(j);
  return s;
}

std::string ScheduleOp::debug() const {
  std::ostringstream os;
  os << names_of(kind).debug;
  if (i >= 0) os << " i=" << i;
  if (j >= 0) os << " j=" << j;
  return os.str();
}

std::int64_t ScheduleOp::bytes(const ChunkGeometry& g) const {
  std::int64_t total = 0;
  for (Buf b : bufs) total += g.bytes(b);
  return total;
}

std::size_t ChunkSchedule::push(OpKind kind, std::int64_t i, std::int64_t j, int stream,
                                std::vector<Buf> bufs, Ids deps) {
  ScheduleOp op{kind, i, j, stream, std::move(bufs), {}, in_backward_};
  // Write-then-read on host copies: a fetch waits for the offload that
  // last wrote each of its buffers (ChunkStore::offload_event).
  for (Buf b : op.bufs) {
    const std::pair<Buf, std::int64_t> key{b, op.buffer_chunk()};
    if (stream == kStreamD2H) last_offload_[key] = ops_.size();
    if (stream == kStreamH2D) {
      if (auto it = last_offload_.find(key); it != last_offload_.end()) deps.push_back(it->second);
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  op.deps = std::move(deps);
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

ChunkSchedule ChunkSchedule::forward(std::int64_t u, bool offload, bool double_buffer,
                                     bool caching) {
  FPDT_CHECK_GE(u, 1) << " schedule chunks";
  ChunkSchedule sched(u, offload, double_buffer);
  sched.append_forward(caching);
  return sched;
}

ChunkSchedule ChunkSchedule::backward(std::int64_t u, bool offload, bool double_buffer,
                                      bool recompute) {
  FPDT_CHECK_GE(u, 1) << " schedule chunks";
  ChunkSchedule sched(u, offload, double_buffer);
  if (recompute) sched.append_forward(/*caching=*/true);
  sched.append_backward();
  return sched;
}

void ChunkSchedule::fetch_ahead(std::int64_t k, OpKind kind, std::int64_t i,
                                std::vector<Buf> bufs, const Ids& frees, Ids& fetched) {
  const std::int64_t ahead = window() - 1;
  for (std::int64_t c = k == 0 ? 0 : k + ahead; c <= k + ahead && c < std::ssize(fetched); ++c) {
    Ids deps;
    if (c >= window()) deps.push_back(frees[static_cast<std::size_t>(c - window())]);
    const bool kv = kind == OpKind::kFetchKv;
    fetched[static_cast<std::size_t>(c)] =
        push(kind, kv ? i : c, kv ? c : -1, kStreamH2D, bufs, std::move(deps));
  }
}

void ChunkSchedule::append_forward(bool caching) {
  for (std::int64_t i = 0; i < u_; ++i) {
    const std::size_t proj = push(OpKind::kQkvProject, i, -1, kStreamCompute);
    const std::size_t a2a = push(OpKind::kAll2AllQkv, i, -1, kStreamComm,
                                 {Buf::kQhat, Buf::kKhat, Buf::kVhat}, {proj});
    // Earlier KV chunks stream in; a fetch's slot frees with the attention
    // step `window` chunks before it.
    Ids attn(static_cast<std::size_t>(i)), fetch(static_cast<std::size_t>(i));
    for (std::int64_t j = 0; j < i; ++j) {
      Ids deps = {a2a};
      if (offload_) {
        fetch_ahead(j, OpKind::kFetchKv, i, {Buf::kKhat, Buf::kVhat}, attn, fetch);
        deps.push_back(fetch[static_cast<std::size_t>(j)]);
      }
      attn[static_cast<std::size_t>(j)] = push(OpKind::kAttnStep, i, j, kStreamCompute, {}, deps);
    }
    // Diagonal: k̂ᵢ/v̂ᵢ are fresh from the All2All.
    const std::size_t diag = push(OpKind::kAttnStep, i, i, kStreamCompute, {}, {a2a});
    if (offload_) {
      std::vector<Buf> cached = {Buf::kKhat, Buf::kVhat};
      if (caching) cached.insert(cached.end(), {Buf::kQhat, Buf::kLse});
      push(OpKind::kOffloadKv, i, -1, kStreamD2H, std::move(cached), {diag});
    }
    const std::size_t back = push(OpKind::kAll2AllOut, i, -1, kStreamComm, {Buf::kOhat}, {diag});
    if (offload_ && caching) push(OpKind::kOffloadOut, i, -1, kStreamD2H, {Buf::kOhat}, {back});
    const std::size_t post = push(OpKind::kOutProjFfn, i, -1, kStreamCompute, {}, {back});
    if (offload_ && caching) push(OpKind::kOffloadY, i, -1, kStreamD2H, {Buf::kY}, {post});
  }
}

void ChunkSchedule::append_backward() {
  in_backward_ = true;
  const auto n = static_cast<std::size_t>(u_);
  // Phase A: FFN / norm2 / Wo backward per chunk, producing dô + D. A y/ô
  // slot frees once its chunk's dô All2All has run.
  Ids fetch_yo(n), a2a_do(n);
  for (std::int64_t i = 0; i < u_; ++i) {
    Ids deps;
    if (offload_) {
      fetch_ahead(i, OpKind::kFetchYO, -1, {Buf::kY, Buf::kOhat}, a2a_do, fetch_yo);
      deps.push_back(fetch_yo[static_cast<std::size_t>(i)]);
    }
    const std::size_t ffn = push(OpKind::kFfnBackward, i, -1, kStreamCompute, {}, deps);
    const std::size_t a2a_o = push(OpKind::kAll2AllOut, i, -1, kStreamComm, {Buf::kOhat}, {ffn});
    const std::size_t wo = push(OpKind::kOutProjBackward, i, -1, kStreamCompute, {}, {a2a_o});
    const std::size_t a2a = push(OpKind::kAll2AllGrad, i, -1, kStreamComm, {Buf::kDohat}, {wo});
    a2a_do[static_cast<std::size_t>(i)] = a2a;
    if (offload_) push(OpKind::kOffloadDoD, i, -1, kStreamD2H, {Buf::kDohat, Buf::kD}, {a2a});
  }
  // Phase B: nested loops — outer over KV chunks, inner over query chunks.
  // A KV slot frees after the last step of its outer iteration; the q-side
  // chunks of a pair have a single slot, freed by the previous step.
  Ids fetch_kv(n), last_step(n), prev_step;
  for (std::int64_t j = 0; j < u_; ++j) {
    if (offload_) fetch_ahead(j, OpKind::kFetchKv, -1, {Buf::kKhat, Buf::kVhat}, last_step, fetch_kv);
    for (std::int64_t i = j; i < u_; ++i) {
      Ids deps = {a2a_do[static_cast<std::size_t>(i)]};
      if (offload_) {
        // q̂ᵢ, dôᵢ, lseᵢ, Dᵢ and (after its first visit) the dq̂ᵢ
        // accumulator stream in at the point of use.
        std::vector<Buf> q_side = {Buf::kQhat, Buf::kDohat, Buf::kLse, Buf::kD};
        if (j > 0) q_side.push_back(Buf::kDqhat);
        deps.push_back(push(OpKind::kFetchQGrad, i, j, kStreamH2D, std::move(q_side), prev_step));
        if (i == j) deps.push_back(fetch_kv[static_cast<std::size_t>(j)]);
      }
      prev_step = {push(OpKind::kAttnBwdStep, i, j, kStreamCompute, {}, deps)};
      if (offload_ && i != j) push(OpKind::kOffloadDq, i, j, kStreamD2H, {Buf::kDqhat}, prev_step);
    }
    last_step[static_cast<std::size_t>(j)] = prev_step.front();
    // dq̂ⱼ/dk̂ⱼ/dv̂ⱼ home, then the projection backward there.
    const std::size_t a2a = push(OpKind::kAll2AllGrad, j, -1, kStreamComm,
                                 {Buf::kDqhat, Buf::kDkhat, Buf::kDvhat}, prev_step);
    push(OpKind::kQkvBackward, j, -1, kStreamCompute, {}, {a2a});
  }
}

void ChunkSchedule::check_legal() const {
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    for (std::size_t d : ops_[k].deps) {
      FPDT_CHECK_LT(d, k) << " " << ops_[k].debug() << " waits on a later op";
    }
  }
  const auto split = static_cast<std::size_t>(
      std::find_if(ops_.begin(), ops_.end(), [](const ScheduleOp& op) { return op.backward; }) -
      ops_.begin());
  if (split > 0) check_forward(split);
  if (split < ops_.size()) check_backward(split);
}

void ChunkSchedule::check_forward(std::size_t end) const {
  std::set<std::int64_t> qhat_ready;   // All2All done for chunk i
  std::set<std::int64_t> kv_on_host;   // offloaded KV chunks
  std::set<std::int64_t> kv_resident;  // fetched copies currently on device
  for (std::size_t k = 0; k < end; ++k) {
    const ScheduleOp& op = ops_[k];
    switch (op.kind) {
      case OpKind::kQkvProject:
        // The previous chunk's fetched copies retired with its attention.
        kv_resident.clear();
        break;
      case OpKind::kAll2AllQkv:
        qhat_ready.insert(op.i);
        break;
      case OpKind::kFetchKv: {
        FPDT_CHECK(kv_on_host.contains(op.j))
            << " fetch of non-offloaded kv chunk " << op.j << " (" << op.debug() << ")";
        kv_resident.insert(op.j);
        // Double-buffer invariant: window bound on fetched copies.
        FPDT_CHECK_LE(static_cast<std::int64_t>(kv_resident.size()), window() + 1)
            << " too many resident kv chunks at " << op.debug();
        break;
      }
      case OpKind::kAttnStep: {
        FPDT_CHECK(qhat_ready.contains(op.i)) << " attention before All2All of chunk " << op.i;
        if (op.j != op.i) {
          // Earlier chunk must be resident: fetched (offload mode) or
          // still alive (resident mode).
          if (offload_) {
            FPDT_CHECK(kv_resident.contains(op.j))
                << " attention on non-fetched kv chunk " << op.j;
            // Strict single-buffer mode: the chunk retires as soon as it
            // is consumed; double buffer keeps the previous one around.
            if (window() == 1) kv_resident.erase(op.j);
            if (window() == 2 && op.j >= 1) kv_resident.erase(op.j - 1);
          } else {
            FPDT_CHECK(qhat_ready.contains(op.j))
                << " attention on never-produced kv chunk " << op.j;
          }
        }
        break;
      }
      case OpKind::kOffloadKv:
        kv_on_host.insert(op.i);
        kv_resident.erase(op.i);
        break;
      case OpKind::kAll2AllOut:
      case OpKind::kOffloadOut:
      case OpKind::kOutProjFfn:
      case OpKind::kOffloadY:
        break;
      default:
        throw FpdtError("backward op in forward schedule: " + op.debug());
    }
  }
  // Every chunk's KV must have been produced.
  FPDT_CHECK_EQ(static_cast<std::int64_t>(qhat_ready.size()), u_) << " missing chunks";
}

void ChunkSchedule::check_backward(std::size_t begin) const {
  std::set<std::int64_t> phase_a_done;
  std::set<std::int64_t> kv_resident;   // fetched KV chunks not yet retired
  std::set<std::int64_t> dq_finalized;  // dq̂ finalization bookkeeping
  std::vector<std::int64_t> dq_last_outer(static_cast<std::size_t>(u_), -1);
  std::int64_t current_outer = -1;
  std::int64_t kv_fetched = -1;
  for (std::size_t k = begin; k < ops_.size(); ++k) {
    const ScheduleOp& op = ops_[k];
    switch (op.kind) {
      case OpKind::kFfnBackward:
        phase_a_done.insert(op.i);
        break;
      case OpKind::kOutProjBackward:
        FPDT_CHECK(phase_a_done.contains(op.i))
            << " Wo backward before FFN backward of chunk " << op.i;
        break;
      case OpKind::kFetchYO:
      case OpKind::kAll2AllOut:
      case OpKind::kAll2AllGrad:
      case OpKind::kOffloadDoD:
        break;
      case OpKind::kFetchKv:
        FPDT_CHECK_EQ(op.j, kv_fetched + 1) << " kv fetch out of outer order";
        FPDT_CHECK_LE(op.j, current_outer + window()) << " kv fetch beyond the window";
        kv_fetched = op.j;
        kv_resident.insert(op.j);
        FPDT_CHECK_LE(static_cast<std::int64_t>(kv_resident.size()), window())
            << " too many resident kv chunks at " << op.debug();
        break;
      case OpKind::kFetchQGrad:
        FPDT_CHECK(phase_a_done.contains(op.i))
            << " q-grad fetch before phase A of chunk " << op.i;
        break;
      case OpKind::kAttnBwdStep: {
        FPDT_CHECK(phase_a_done.contains(op.i))
            << " attention backward before dô of chunk " << op.i;
        FPDT_CHECK_GE(op.i, op.j) << " causally-masked pair scheduled: " << op.debug();
        if (offload_) {
          FPDT_CHECK(kv_resident.contains(op.j)) << " kv chunk not fetched";
          // The last inner step retires the KV chunk.
          if (op.i == u_ - 1) kv_resident.erase(op.j);
        }
        if (op.j != current_outer) {
          FPDT_CHECK_EQ(op.j, current_outer + 1) << " outer loop must ascend";
          current_outer = op.j;
        }
        // dq̂ᵢ contributions must arrive in ascending outer order and the
        // final one lands exactly at j == i ("we get its final result
        // after the first inner loop" of outer j == i).
        FPDT_CHECK(!dq_finalized.contains(op.i))
            << " contribution to finalized dq chunk " << op.i;
        FPDT_CHECK_GT(op.j, dq_last_outer[static_cast<std::size_t>(op.i)])
            << " duplicate outer contribution to dq chunk " << op.i;
        dq_last_outer[static_cast<std::size_t>(op.i)] = op.j;
        if (op.i == op.j) dq_finalized.insert(op.i);
        break;
      }
      case OpKind::kOffloadDq:
        FPDT_CHECK(!dq_finalized.contains(op.i))
            << " offloading an already-final dq chunk " << op.i;
        break;
      case OpKind::kQkvBackward:
        FPDT_CHECK(dq_finalized.contains(op.i))
            << " projection backward before dq̂ finalized for chunk " << op.i;
        break;
      default:
        throw FpdtError("forward op in backward schedule: " + op.debug());
    }
  }
  FPDT_CHECK_EQ(static_cast<std::int64_t>(dq_finalized.size()), u_)
      << " not all dq chunks finalized";
}

std::int64_t ChunkSchedule::count(OpKind kind) const {
  return std::count_if(ops_.begin(), ops_.end(),
                       [kind](const ScheduleOp& op) { return op.kind == kind; });
}

std::string ChunkSchedule::to_string(std::size_t max_ops) const {
  std::ostringstream os;
  std::size_t shown = 0;
  for (const ScheduleOp& op : ops_) {
    if (shown++ >= max_ops) {
      os << "... (" << ops_.size() - max_ops << " more)\n";
      break;
    }
    static const char* stream_names[] = {"comp", "h2d ", "d2h ", "comm"};
    os << "[" << stream_names[op.stream] << "] " << op.debug() << "\n";
  }
  return os.str();
}

}  // namespace fpdt::core
