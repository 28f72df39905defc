// Work accounting for the math-kernel dispatch layer.
//
// Every call that reaches a kernels::Backend is charged an *analytic* FLOP
// and byte cost computed purely from its shapes (kernels/op_cost.h), never
// from what the backend actually executes — so the scalar reference and the
// SIMD backend report bit-identical integer work for the same call sequence,
// and the counters measure algorithmic work, not implementation effort.
// Dividing these counts by the sim::hardware peak-compute / bandwidth model
// yields MFU, achieved GB/s and arithmetic intensity (the roofline numbers
// the paper reports in Figs. 1/11); obs::StepProfiler does that per step and
// `fpdt bench` snapshots it into BENCH_<n>.json.
//
// Attribution: totals are kept per op kind (gemm / attention / softmax /
// norm / activation) and per *phase*. A phase is an interned name installed
// by the existing FPDT_TRACE_SCOPE(kCatPhase, ...) spans — obs::TraceScope
// interns the name and tags the thread via common/logging's thread-local
// work-phase id, which parallel_for_ranks propagates into rank workers — so
// the breakdown matches the tracer's phase vocabulary (embed /
// blocks.forward / loss_head / blocks.backward / embed.backward /
// optimizer) with id 0 = "unattributed".
//
// Cost discipline (same contract as the tracer): every charge site first
// checks work_metering_enabled() — one relaxed atomic load — so a disabled
// meter adds a predicted-not-taken branch per kernel call, no allocation,
// no locking, and never perturbs the math (metering has no side effects on
// computation either way). Enabled charges are lock-free relaxed atomic
// adds on preallocated slots; phase interning (the only locking path) runs
// once per new phase name, outside any kernel.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace fpdt::obs {

// Taxonomy of metered primitives: one kind per kernels::Backend op family.
enum class OpKind : int {
  kGemm = 0,        // gemm_nn_acc / gemm_nt / gemm_tn_acc
  kAttention = 1,   // attn_forward / online_attn_step / online_attn_backward_step
  kSoftmax = 2,     // softmax_rows
  kNorm = 3,        // layernorm / rmsnorm fwd+bwd
  kActivation = 4,  // gelu / silu fwd+bwd
};
inline constexpr int kOpKinds = 5;
const char* op_kind_name(OpKind kind);

// Analytic work of one kernel call. Integer on purpose: the formulas in
// kernels/op_cost.h are exact integer arithmetic over shapes, so equality
// across backends is bitwise, not within-tolerance.
struct OpWork {
  std::int64_t flops = 0;
  std::int64_t bytes = 0;

  OpWork& operator+=(const OpWork& o) {
    flops += o.flops;
    bytes += o.bytes;
    return *this;
  }
};

// Per-op-kind work of the kernel calls a thread dispatches while this sink
// is installed in t_work_sink — charged whether or not the Workmeter is on.
// runtime::Device::compute installs one around a compute region and prices
// the region's virtual-clock span from it, so the clock and the Workmeter
// read one set of formulas (kernels/op_cost.h).
struct WorkSink {
  OpWork kind[kOpKinds] = {};
};
inline constinit thread_local WorkSink* t_work_sink = nullptr;

// Global enable flag, mirroring obs::g_trace_enabled: kept outside the
// Workmeter so the disabled check is one relaxed atomic load.
extern std::atomic<bool> g_work_meter_enabled;
inline bool work_metering_enabled() {
  return g_work_meter_enabled.load(std::memory_order_relaxed);
}

// Cumulative totals per op kind and per phase. Snapshots are additive:
// subtract an earlier snapshot from a later one for a window's work.
struct WorkSnapshot {
  OpWork kind[kOpKinds] = {};
  std::int64_t calls[kOpKinds] = {};
  // phase name -> work charged while that phase tag was installed
  // ("unattributed" for charges outside any phase span).
  std::map<std::string, OpWork> phase;

  std::int64_t total_flops() const;
  std::int64_t total_bytes() const;

  // Component-wise this - base (phases missing from base count from zero).
  WorkSnapshot since(const WorkSnapshot& base) const;
};

class Workmeter {
 public:
  static Workmeter& instance();

  // Enables/disables charging process-wide (affects work_metering_enabled()).
  void set_enabled(bool on);

  // Charges one kernel call's analytic work to (kind, current thread's
  // phase). Call sites must be gated on work_metering_enabled().
  void charge(OpKind kind, OpWork work);

  // Interns a phase name to a stable id for WorkPhaseTag (id 0 =
  // "unattributed"; capacity overflow folds into 0 rather than failing).
  int intern_phase(const std::string& name);

  WorkSnapshot snapshot() const;

  // Zeroes every accumulator (interned phase ids stay valid).
  void reset();

 private:
  // Generous fixed capacity: the trainer vocabulary is ~7 phases; slots are
  // preallocated so charge() never allocates.
  static constexpr int kMaxPhases = 32;

  struct Cell {
    std::atomic<std::int64_t> flops{0};
    std::atomic<std::int64_t> bytes{0};
    std::atomic<std::int64_t> calls{0};
  };

  Workmeter() = default;

  Cell cells_[kMaxPhases][kOpKinds];

  mutable std::mutex phase_mutex_;
  std::map<std::string, int> phase_ids_;  // name -> 1..kMaxPhases-1
};

// RAII phase tag by name: interns once, installs the thread-local id via
// common/logging so charges (on this thread and on parallel_for_ranks
// workers it forks) attribute here. Constructing with metering disabled
// still installs the tag — it is two int stores — so a meter enabled
// mid-step attributes correctly.
class MeterPhase {
 public:
  explicit MeterPhase(const std::string& name);
  ~MeterPhase();

  MeterPhase(const MeterPhase&) = delete;
  MeterPhase& operator=(const MeterPhase&) = delete;

 private:
  int prev_;
};

}  // namespace fpdt::obs
