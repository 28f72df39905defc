// Structured tracing for the executed runtime — one virtual-time timeline
// per emulated node, exported as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing, one process per rank, one track per stream).
//
// The stream engine (runtime/stream.h) already resolves a deterministic
// virtual clock per device; the tracer merges those span ledgers with the
// chunk lifecycle (core/chunk_prefetcher.h), the collectives
// (comm/process_group.h) and the memory-pool occupancy samples
// (runtime/memory_pool.h) into a single event buffer:
//
//   complete  an interval [ts, ts+dur) on a (rank, track) lane — stream
//             spans, FPDT_TRACE_SCOPE regions;
//   instant   a point event — prefetch issue/retire, offload adoption,
//             collective calls (value = bytes moved per rank);
//   counter   a sampled value — HBM used+staged bytes, All2All bytes.
//
// Timestamps are *virtual seconds* from the per-rank clock, which advances
// as stream tasks drain (runtime::Stream adds a monotonic offset across
// reset_timeline() calls so multi-step traces stay ordered). Events emitted
// off-stream (scopes, collectives, pool samples) are stamped at the emitting
// rank's current clock. The emulated ranks fork across threads
// (common/thread_pool.h), so every entry point is mutex-guarded.
//
// Cost discipline: every instrumentation site is gated on tracing_enabled()
// — a relaxed atomic load compiling to a branch — so a disabled tracer adds
// no allocation, no locking and no formatting to any hot path, and never
// perturbs the bit-identical streamed-vs-sync guarantee (tracing has no side
// effects on computation either way). The buffer is a bounded ring: when
// full, the oldest events are dropped (dropped() reports how many).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace fpdt::obs {

// Categories used by the built-in instrumentation. Free-form strings are
// allowed; these are the lanes the acceptance tooling looks for.
inline constexpr const char* kCatStream = "stream";
inline constexpr const char* kCatChunk = "chunk";
inline constexpr const char* kCatComm = "comm";
inline constexpr const char* kCatMemory = "memory";
inline constexpr const char* kCatPhase = "phase";
inline constexpr const char* kCatPerf = "perf";  // roofline counter tracks (mfu, gbps, ...)

// Rank id for node-level (not per-rank) events, e.g. the shared host pool.
inline constexpr int kNodeRank = -1;

struct TraceEvent {
  enum class Kind { kComplete, kInstant, kCounter };
  Kind kind = Kind::kInstant;
  std::string category;
  std::string name;
  std::string track;  // lane within the rank's process ("compute", "h2d", ...)
  int rank = 0;       // kNodeRank for node-level events
  double ts_s = 0.0;
  double dur_s = 0.0;  // kComplete only
  double value = 0.0;  // kCounter always; kComplete/kInstant when has_value
  bool has_value = false;
  // kCounter from Tracer::counter_change: the change that produced value.
  bool has_delta = false;
  double delta = 0.0;
};

// Global enable flag. Kept outside the Tracer so the disabled check is one
// relaxed atomic load, no function call, no lock.
extern std::atomic<bool> g_trace_enabled;
inline bool tracing_enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

class Tracer {
 public:
  static Tracer& instance();

  // Enables/disables event recording process-wide (affects tracing_enabled()).
  void set_enabled(bool on);

  // Ring capacity in events; when exceeded the oldest events are dropped.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  // Drops all buffered events, the dropped counter and the rank clocks.
  void clear();

  void complete(std::string category, std::string name, int rank, std::string track,
                double start_s, double dur_s, double value = 0.0, bool has_value = false);
  void instant(std::string category, std::string name, int rank, std::string track,
               double value = 0.0, bool has_value = false);
  // Counters are stamped at `clock_rank`'s current clock (defaults to `rank`;
  // pass the acting rank for node-level pools whose own rank is kNodeRank).
  void counter(std::string category, std::string name, int rank, double value,
               int clock_rank = kClockOfRank);
  // A counter that several threads move, each by `delta` (a node-shared
  // pool): `total` after the change depends on how the threads interleaved,
  // so chrome_trace_json() rebuilds the series in timestamp order as the
  // total before its first sample plus the running sum of deltas.
  void counter_change(std::string category, std::string name, int rank, double total,
                      double delta, int clock_rank);

  // Per-rank virtual clock: the finish time of the last drained stream task.
  // advance_clock is monotonic (max of current and t).
  double clock(int rank) const;
  void advance_clock(int rank, double t);

  // Snapshot of the buffered events in emission order.
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  std::size_t dropped() const;

  // Chrome trace-event JSON ("traceEvents" array form): pid = rank (node
  // events get their own process), tid = track, ts/dur in microseconds.
  std::string chrome_trace_json() const;
  // Writes chrome_trace_json() to `path`; throws FpdtError on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  static constexpr int kClockOfRank = INT32_MIN;

  Tracer() = default;
  void push_locked(TraceEvent ev);

  mutable std::mutex mutex_;
  std::deque<TraceEvent> events_;
  std::size_t capacity_ = 1u << 18;  // 262144 events
  std::size_t dropped_ = 0;
  std::unordered_map<int, double> clocks_;
};

// RAII span on the current rank's "cpu" track. The interval is measured on
// the rank's *virtual* clock, so its duration is the virtual time that
// drained through streams while the scope was open (0 for pure-CPU regions,
// which still leaves a nesting instant marker in the trace). Constructing
// with a disabled tracer is a branch and two stores — no strings, no lock.
//
// Phase spans (category == kCatPhase) double as work-attribution tags: when
// the workmeter is enabled the scope also interns its name and installs the
// thread-local work-phase id (common/logging.h), so kernel FLOPs dispatched
// under the span — including inside parallel_for_ranks workers — are charged
// to this phase. The tag is independent of the tracer: metering attributes
// correctly even when no trace is being recorded, and vice versa.
class TraceScope {
 public:
  TraceScope(const char* category, const char* name, int rank = kUseCurrentRank);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  static constexpr int kUseCurrentRank = INT32_MIN;

  bool active_ = false;
  bool phase_tagged_ = false;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  int rank_ = 0;
  int prev_phase_ = 0;
  double start_ = 0.0;
};

#define FPDT_TRACE_CONCAT_IMPL(a, b) a##b
#define FPDT_TRACE_CONCAT(a, b) FPDT_TRACE_CONCAT_IMPL(a, b)
// Zero-cost-when-disabled RAII trace span: category/name must be string
// literals (dynamic names should guard on fpdt::obs::tracing_enabled()).
#define FPDT_TRACE_SCOPE(category, name) \
  ::fpdt::obs::TraceScope FPDT_TRACE_CONCAT(fpdt_trace_scope_, __LINE__)(category, name)

}  // namespace fpdt::obs
