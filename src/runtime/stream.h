// Emulated CUDA-style streams and events for the runtime layer.
//
// The paper's pipeline rests on three CUDA streams per GPU ("we deploy three
// CUDA streams", §4.1): compute, host-to-device, and device-to-host. The
// simulator (sim/pipeline_sim.h) models that abstractly; this header gives
// the *executed* runtime the same machinery so prefetch/offload overlap is
// observable in the functional system, not just predicted.
//
// Semantics mirror CUDA:
//   - a Stream executes its tasks FIFO in enqueue order;
//   - an Event marks the completion point of the last task enqueued before
//     it; waiting on it orders work across streams;
//   - tasks carry a *virtual* duration (from StreamRates — a small cost
//     table mirroring sim::CostModel) and an optional side-effect closure.
//
// Execution is deferred and deterministic: enqueue() queues the closure;
// it runs — on the caller's thread — when the task is drained, i.e. when an
// Event recorded after it is waited on or the stream is synchronized. The
// virtual clock is resolved at drain time: start = max(stream tail, waited
// events' finish times), finish = start + duration. Because real side
// effects execute in a fixed topological order of the same DAG, results are
// bit-identical to fully synchronous execution; only the *timeline* (the
// per-stream span ledger) models the asynchrony.
//
// Thread-safety: a Stream is not internally synchronized. Streams are
// per-device, and the executor's fork/join structure (common/thread_pool.h)
// guarantees each emulated rank's streams are touched by one thread at a
// time — the same discipline real per-GPU streams enjoy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/workmeter.h"

namespace fpdt::runtime {

class Stream;

// Completion marker for a task on a Stream. Default-constructed events are
// "null": wait() is a no-op and ready_time() is 0 (like cudaEvent on the
// default stream's empty past).
class Event {
 public:
  Event() = default;

  bool valid() const { return stream_ != nullptr; }

  // Drains the recording stream through the marked task, executing deferred
  // side effects. No-op for null events or already-executed tasks.
  void wait() const;

  // Virtual finish time of the marked task. Only meaningful after wait()
  // (or a synchronize of the recording stream); 0 for null events.
  double ready_time() const;

 private:
  friend class Stream;
  Event(Stream* stream, std::int64_t seq) : stream_(stream), seq_(seq) {}

  Stream* stream_ = nullptr;
  std::int64_t seq_ = -1;
};

// One executed task on a stream's virtual timeline; `flops` is the kernel
// work a compute region's span was priced from (0 for every other task).
struct StreamSpan {
  std::string label;
  double start = 0.0;
  double finish = 0.0;
  std::int64_t flops = 0;
  double duration() const { return finish - start; }
};

// Virtual-time cost table for stream tasks. Defaults mirror the A100 node
// of sim/hardware.h; sim/runtime_bridge.h derives an exactly-matching table
// from a CostModel so runtime-measured timelines and simulator predictions
// share one set of constants.
struct StreamRates {
  double gemm_flops_per_s = 312e12 * 0.62;  // peak × matmul efficiency
  double attn_flops_per_s = 312e12 * 0.45;  // peak × fused-attention efficiency
  double kernel_overhead_s = 12e-6;
  // PCIe Gen-4 ×16 with two GPUs sharing a socket's lanes (§4.2 per-GPU DMA).
  double h2d_bytes_per_s = 16e9;
  double d2h_bytes_per_s = 16e9;
  double transfer_latency_s = 45e-6;  // contended-lane latency (3× base)
  // Collective link for All2All spans, which the runtime enqueues on the
  // *compute* stream (it has no separate comm queue): single-node NVLink.
  double comm_bytes_per_s = 100e9;
  double comm_latency_s = 5e-6;

  // A compute region: its kernels' analytic FLOPs per kind (attention at the
  // fused-attention rate, the rest at the matmul rate) plus one launch.
  double compute_time(const obs::WorkSink& work) const {
    double t = kernel_overhead_s;
    for (int k = 0; k < obs::kOpKinds; ++k) {
      const bool attn = static_cast<obs::OpKind>(k) == obs::OpKind::kAttention;
      t += static_cast<double>(work.kind[k].flops) / (attn ? attn_flops_per_s : gemm_flops_per_s);
    }
    return t;
  }

  double gemm_time(double flops) const { return flops / gemm_flops_per_s + kernel_overhead_s; }
  double attn_time(double flops) const { return flops / attn_flops_per_s + kernel_overhead_s; }
  double a2a_time(std::int64_t bytes_per_gpu, int world) const {
    if (world <= 1) return 0.0;
    const double sent = static_cast<double>(bytes_per_gpu) * (world - 1) / world;
    return sent / comm_bytes_per_s + comm_latency_s;
  }
  double h2d_time(std::int64_t bytes) const {
    return static_cast<double>(bytes) / h2d_bytes_per_s + transfer_latency_s;
  }
  double d2h_time(std::int64_t bytes) const {
    return static_cast<double>(bytes) / d2h_bytes_per_s + transfer_latency_s;
  }
};

class Stream {
 public:
  explicit Stream(std::string name) : name_(std::move(name)) {}

  Stream(const Stream&) = delete;  // Events hold stable Stream pointers
  Stream& operator=(const Stream&) = delete;

  const std::string& name() const { return name_; }

  // Queues a task. `waits` are cross-stream dependencies (CUDA events);
  // `fn` (optional) is the deferred side effect; `flops` goes on the span.
  // Returns the task's completion event.
  Event enqueue(std::string label, double duration_s, std::vector<Event> waits = {},
                std::function<void()> fn = {}, std::int64_t flops = 0);

  // Completion event of the last task enqueued so far (cudaEventRecord);
  // null on a stream that never had a task.
  Event record();

  // Executes every pending task in FIFO order.
  void synchronize();

  // Drops pending tasks *without* executing them. Only for abandoning a
  // poisoned pipeline during exception unwind: captured RAII state (staging
  // charges, tensors) is released by closure destruction.
  void discard_pending();

  bool idle() const { return pending_.empty(); }

  // Labels of not-yet-executed tasks, in FIFO order — the end-of-step
  // watchdog's evidence when a transfer never retired (labels embed the
  // chunk key: "fetch.khat.0.1").
  std::vector<std::string> pending_labels() const;

  // Virtual time at which the stream goes idle (after synchronize()).
  double tail_time() const { return tail_; }

  // Sum of executed span durations — the busy-time ledger.
  double busy_time() const;

  // Executed spans in order; starts are monotonic (FIFO).
  const std::vector<StreamSpan>& spans() const { return spans_; }

  // Clears the span ledger and rewinds the virtual clock to 0 so a fresh
  // measurement window can start. Requires an idle stream. Events recorded
  // before the reset degrade to "long done" (ready_time 0). The tracer
  // offset keeps accumulating, so trace timestamps stay monotonic across
  // measurement windows.
  void reset_timeline();

  // Identity used for trace events (obs/trace.h): the owning rank and the
  // lane name within that rank's trace process. Streams default to rank 0
  // with the stream name as lane; runtime::Device assigns the real rank and
  // the short "compute"/"h2d"/"d2h" lanes.
  void set_trace_identity(int rank, std::string track) {
    trace_rank_ = rank;
    trace_track_ = std::move(track);
  }
  int trace_rank() const { return trace_rank_; }

  // Virtual-time offset added to trace timestamps: the total virtual time
  // retired before the last reset_timeline().
  double trace_offset() const { return trace_offset_; }

 private:
  friend class Event;

  struct Pending {
    std::string label;
    double duration = 0.0;
    std::vector<Event> waits;
    std::function<void()> fn;
    std::int64_t flops = 0;
  };

  void drain_through(std::int64_t seq);
  void execute_front();
  double finish_time_of(std::int64_t seq) const;
  std::int64_t executed() const { return base_ + static_cast<std::int64_t>(spans_.size()); }

  std::string name_;
  std::deque<Pending> pending_;
  std::vector<StreamSpan> spans_;
  std::int64_t base_ = 0;  // seq of the first entry in spans_ (advanced by resets)
  double tail_ = 0.0;
  int trace_rank_ = 0;
  std::string trace_track_;
  double trace_offset_ = 0.0;
};

// ---- Transfer-timeline report ----------------------------------------------

// Virtual time during which spans of `xs` and `busy` overlap. Both must be
// sorted by start with non-overlapping spans (true of any single stream's
// ledger).
double overlapped_time(const std::vector<StreamSpan>& xs, const std::vector<StreamSpan>& busy);

// The observability product of the stream engine: per-stream busy time plus
// how much transfer time hid behind compute — the paper's Fig. 8 story
// ("GPU starving" = exposed transfer time) measured on the executed system.
struct TimelineReport {
  double makespan_s = 0.0;
  double compute_busy_s = 0.0;
  double h2d_busy_s = 0.0;
  double d2h_busy_s = 0.0;
  double hidden_transfer_s = 0.0;   // transfer time overlapped with compute
  double exposed_transfer_s = 0.0;  // transfer time the GPU would starve on

  double transfer_busy_s() const { return h2d_busy_s + d2h_busy_s; }
  // Fraction of transfer time hidden behind compute, clamped to [0, 1].
  // Well-defined (0, never NaN) for empty ledgers and zero-duration spans,
  // where there is no transfer time at all.
  double overlap_ratio() const {
    const double transfer = transfer_busy_s();
    if (transfer <= 0.0) return 0.0;
    return std::clamp(hidden_transfer_s / transfer, 0.0, 1.0);
  }
  std::string to_string() const;
};

// Builds the report from a device's three streams. All three must be idle
// (synchronized) so the ledger is complete.
TimelineReport make_timeline_report(const Stream& compute, const Stream& h2d,
                                    const Stream& d2h);

}  // namespace fpdt::runtime
