// Explicit representation of the FPDT chunk schedule (Figs. 4, 5 and 7) as
// an op list with stream assignments and cross-stream dependencies.
//
// Each op is one thing the functional executor (fpdt_block.cpp) does on one
// rank: a compute region (named with the executor's span label), a
// collective, or a fetch/offload of named chunk buffers. The list is in the
// executor's issue order, so per stream it is that stream's FIFO order.
// `deps` are the cross-stream waits: a fetch waits for the op that frees
// its buffer slot (the double-buffer window, the backward fetch-ahead, the
// single q-side slot of a backward pair) and for the offload that wrote its
// chunk. The timing simulator (sim/timeline.h) prices this list op by op,
// and tests/test_schedule_agreement.cpp holds the executor to it (region
// labels, transfer bytes, attention FLOPs). check_legal() guards it: every
// operand is produced before use, nothing is read from the host without a
// fetch, at most `window` KV chunk buffers are device-resident, and dq̂
// accumulators finalize exactly once — at outer iteration j == i, as the
// paper describes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fpdt::core {

enum class OpKind {
  // Forward, per chunk i.
  kQkvProject,   // proj.i: norm1 + QKV projection + RoPE of local chunk i
  kAll2AllQkv,   // q̂ᵢ/k̂ᵢ/v̂ᵢ: scatter heads / gather sequence
  kFetchKv,      // k̂ⱼ/v̂ⱼ back to device
  kAttnStep,     // attn.i.j: online attention, q chunk i against kv chunk j
  kOffloadKv,    // k̂ᵢ/v̂ᵢ (and q̂ᵢ/lseᵢ when caching) to host
  kAll2AllOut,   // ô chunk between the global and the local layout
  kOffloadOut,   // ôᵢ to host (caching)
  kOutProjFfn,   // post.i: Wo + residual + chunked FFN of chunk i
  kOffloadY,     // yᵢ to host (caching)
  // Backward phase A, per chunk i.
  kFetchYO,          // yᵢ/ôᵢ back to device
  kFfnBackward,      // bwd.ffn.i: FFN/norm2 backward
  kOutProjBackward,  // bwd.out_proj.i: Wo backward, producing dô
  kAll2AllGrad,      // dô to global, or dq̂/dk̂/dv̂ home
  kOffloadDoD,       // dôᵢ and Dᵢ to host
  // Backward phase B, outer kv chunk j, inner query chunk i >= j.
  kFetchQGrad,   // q̂ᵢ/dôᵢ/lseᵢ/Dᵢ (and the dq̂ᵢ accumulator once j > 0)
  kAttnBwdStep,  // bwd.attn.i.j: backward pair (q i, kv j)
  kOffloadDq,    // park partial dq̂ᵢ on host
  kQkvBackward,  // bwd.qkv_proj.j: projection + norm1 backward of chunk j
};

// Chunk-sized buffers an op moves between streams, pools or ranks.
enum class Buf { kQhat, kKhat, kVhat, kOhat, kLse, kY, kDohat, kD, kDqhat, kDkhat, kDvhat };

// Per-rank shapes of one chunk, in the paper's BF16 training dtype: the
// global-layout buffers span c_global rows over this rank's heads; y spans
// the c_local rows of the local layout.
struct ChunkGeometry {
  std::int64_t c_local = 0;
  std::int64_t c_global = 0;
  std::int64_t d_model = 0;
  std::int64_t heads = 0;     // query heads per rank
  std::int64_t kv_heads = 0;  // KV heads per rank
  std::int64_t head_dim = 0;

  std::int64_t bytes(Buf buf) const;
};

inline constexpr int kStreamCompute = 0;
inline constexpr int kStreamH2D = 1;
inline constexpr int kStreamD2H = 2;
inline constexpr int kStreamComm = 3;

struct ScheduleOp {
  OpKind kind;
  std::int64_t i = -1;  // query/main chunk index
  std::int64_t j = -1;  // kv chunk index (attention pair ops)
  int stream = kStreamCompute;
  std::vector<Buf> bufs;          // buffers a transfer or collective moves
  std::vector<std::size_t> deps;  // earlier ops this one waits on
  bool backward = false;          // part of the backward pass

  // The executor's span label for compute ops ("attn.3.1"); a descriptive
  // "<kind>.<chunk>" name for the others.
  std::string label() const;
  std::string debug() const;
  // Bytes the op moves (sum of its buffers; 0 for compute ops).
  std::int64_t bytes(const ChunkGeometry& g) const;
};

class ChunkSchedule {
 public:
  // u: chunks per rank; offload: host caching on; double_buffer: prefetch
  // window 2 (else 1); caching: the forward also offloads q̂/lse/ô/y for
  // the backward (cfg.cache_forward_outputs).
  static ChunkSchedule forward(std::int64_t u, bool offload, bool double_buffer,
                               bool caching = true);
  // The backward phases. recompute = true (plain activation checkpointing,
  // cache_forward_outputs off) puts the caching forward in front of them.
  static ChunkSchedule backward(std::int64_t u, bool offload, bool double_buffer,
                                bool recompute = false);

  const std::vector<ScheduleOp>& ops() const { return ops_; }
  std::int64_t window() const { return double_buffer_ ? 2 : 1; }

  // Throws FpdtError describing the first violated invariant; returns
  // normally when the schedule is legal. Checked invariants:
  //  (1) attention step (i, j) happens only after All2All produced q̂ᵢ and
  //      after k̂ⱼ is device-resident (fresh from All2All or fetched);
  //  (2) with offload, at most `window` *fetched* KV chunks are resident
  //      (forward: plus the one being consumed);
  //  (3) every q̂ chunk's backward contributions arrive in outer-ascending
  //      order and dq̂ᵢ finalizes exactly at pair (j == i);
  //  (4) an offloaded chunk is never read without an intervening fetch;
  //  (5) every dependency names an earlier op.
  void check_legal() const;

  std::int64_t count(OpKind kind) const;

  std::string to_string(std::size_t max_ops = 200) const;

 private:
  ChunkSchedule(std::int64_t u, bool offload, bool double_buffer)
      : u_(u), offload_(offload), double_buffer_(double_buffer) {}

  using Ids = std::vector<std::size_t>;
  // Appends an op and returns its index. A fetch also waits on the last
  // offload of each of its buffers (the executor's write-then-read event).
  std::size_t push(OpKind kind, std::int64_t i, std::int64_t j, int stream,
                   std::vector<Buf> bufs = {}, Ids deps = {});
  // Step k of a loop over the chunks of one fetched series: issues the
  // fetches the executor issues there — chunk k+1 (and chunk 0 at k = 0)
  // when double buffering runs one chunk ahead, chunk k in strict mode.
  // Fetch c lands in one of window() buffer slots and waits for
  // frees[c - window()], the op that frees that slot; fetched[c] records it.
  void fetch_ahead(std::int64_t k, OpKind kind, std::int64_t i, std::vector<Buf> bufs,
                   const Ids& frees, Ids& fetched);
  void append_forward(bool caching);
  void append_backward();
  void check_forward(std::size_t end) const;
  void check_backward(std::size_t begin) const;

  std::int64_t u_;
  bool offload_;
  bool double_buffer_;
  bool in_backward_ = false;
  std::vector<ScheduleOp> ops_;
  std::map<std::pair<Buf, std::int64_t>, std::size_t> last_offload_;  // (buffer, chunk) -> op
};

}  // namespace fpdt::core
