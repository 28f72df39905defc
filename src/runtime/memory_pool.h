// Emulated accelerator memory.
//
// The paper's claims about FPDT are, at heart, claims about *bytes resident
// in HBM over time*. To measure (not assert) those claims, every tensor the
// functional layer places "on device" carries an accounting charge against a
// MemoryPool with finite capacity. Exceeding capacity throws
// OutOfMemoryError — exactly how the paper's OOM points in Fig. 11 arise.
//
// Charges are expressed in *logical* bytes: the paper trains in BF16
// (2 bytes/elem) while our arithmetic runs in FP32, so a charge of
// numel * dtype_size(kBF16) reproduces the paper's footprints even though
// the backing std::vector<float> is wider.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace fpdt::runtime {

enum class Dtype { kBF16, kFP32 };

inline constexpr std::int64_t dtype_size(Dtype d) { return d == Dtype::kBF16 ? 2 : 4; }

// One sample of pool occupancy; recorded at every charge/discharge when
// timeline recording is on (used by the Fig. 13 memory-timeline bench).
struct MemorySample {
  std::int64_t tick = 0;       // monotonically increasing event counter
  std::int64_t used_bytes = 0;
  std::string label;           // op that caused the change
};

class MemoryPool {
 public:
  // capacity_bytes < 0 means unlimited (host memory pools, reference runs).
  MemoryPool(std::string name, std::int64_t capacity_bytes)
      : name_(std::move(name)), capacity_(capacity_bytes) {}

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  const std::string& name() const { return name_; }
  std::int64_t capacity() const { return capacity_; }
  std::int64_t used() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return used_;
  }
  std::int64_t peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

  void reset_peak() {
    std::lock_guard<std::mutex> lock(mutex_);
    peak_ = used_ + staging_;
  }

  void start_timeline() {
    std::lock_guard<std::mutex> lock(mutex_);
    recording_ = true;
    timeline_.clear();
    tick_ = 0;
  }
  void stop_timeline() {
    std::lock_guard<std::mutex> lock(mutex_);
    recording_ = false;
  }
  // Returns a snapshot by value: recording may overlap parallel_for_ranks
  // workers charging this pool, and handing out a reference to the live
  // vector would race with record_locked() growing it.
  std::vector<MemorySample> timeline() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return timeline_;
  }

  // Label attached to subsequent samples; set by executors around each op.
  void set_phase_label(std::string label) {
    std::lock_guard<std::mutex> lock(mutex_);
    phase_label_ = std::move(label);
  }

  // Identity used for trace counter events (obs/trace.h): the owning rank
  // (obs::kNodeRank for node-shared pools) and a short counter name ("hbm",
  // "host"). Assigned by runtime::Device/Host; bare pools fall back to the
  // full pool name on the node process.
  void set_trace_identity(int rank, std::string counter_name) {
    std::lock_guard<std::mutex> lock(mutex_);
    trace_rank_ = rank;
    trace_name_ = std::move(counter_name);
  }

  // Thread-safe: the host pool is shared by all emulated ranks, whose
  // attention loops fork across threads (common/thread_pool.h).
  void charge(std::int64_t bytes) {
    FPDT_CHECK_GE(bytes, 0) << " negative charge on " << name_;
    // Fault-injection point: a spurious OOM, drawn at the acting rank's
    // deterministic stream, exercises the trainer's chunk-doubling
    // degradation path. One relaxed load when the injector is off.
    if (fault::faults_enabled() &&
        fault::FaultInjector::instance().should_fail(fault::Site::kAlloc, current_rank())) {
      throw OutOfMemoryError(name_ + ": injected OOM charging " + std::to_string(bytes) +
                             " bytes");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ >= 0 && used_ + staging_ + bytes > capacity_) {
      throw OutOfMemoryError(name_ + ": OOM allocating " + std::to_string(bytes) +
                             " bytes (used " + std::to_string(used_) + " + staged " +
                             std::to_string(staging_) + " / capacity " +
                             std::to_string(capacity_) + ")");
    }
    used_ += bytes;
    peak_ = std::max(peak_, used_ + staging_);
    record_locked(bytes);
  }

  void discharge(std::int64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    FPDT_CHECK_LE(bytes, used_) << " discharge underflow on " << name_;
    used_ -= bytes;
    record_locked(-bytes);
  }

  // ---- Staging charges: bytes reserved for in-flight stream transfers. ----
  // A prefetch/offload reserves its destination bytes when the transfer is
  // *issued* (where the real cudaMallocAsync would fail), and the reserve
  // converts into a regular data charge when the transfer retires on its
  // stream. Staging counts against capacity and peak — OOM semantics stay
  // honest while a transfer is in flight — but is reported separately.
  std::int64_t staging() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return staging_;
  }

  void charge_staging(std::int64_t bytes) {
    FPDT_CHECK_GE(bytes, 0) << " negative staging charge on " << name_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ >= 0 && used_ + staging_ + bytes > capacity_) {
      throw OutOfMemoryError(name_ + ": OOM staging " + std::to_string(bytes) +
                             " in-flight bytes (used " + std::to_string(used_) + " + staged " +
                             std::to_string(staging_) + " / capacity " +
                             std::to_string(capacity_) + ")");
    }
    staging_ += bytes;
    peak_ = std::max(peak_, used_ + staging_);
    record_locked(bytes);
  }

  void discharge_staging(std::int64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    FPDT_CHECK_LE(bytes, staging_) << " staging discharge underflow on " << name_;
    staging_ -= bytes;
    record_locked(-bytes);
  }

 private:
  void record_locked(std::int64_t delta) {
    if (recording_) timeline_.push_back({tick_++, used_ + staging_, phase_label_});
    if (obs::tracing_enabled()) {
      obs::Tracer& tracer = obs::Tracer::instance();
      const std::string& name = trace_name_.empty() ? name_ : trace_name_;
      const double total = static_cast<double>(used_ + staging_);
      if (trace_rank_ >= 0) {
        tracer.counter(obs::kCatMemory, name, trace_rank_, total);
      } else {
        // Node-shared pools (rank kNodeRank) have no clock of their own and
        // several ranks move them: stamp each change at the acting rank's
        // virtual clock and let the trace rebuild the total from changes.
        tracer.counter_change(obs::kCatMemory, name, trace_rank_, total,
                              static_cast<double>(delta), std::max(current_rank(), 0));
      }
    }
  }

  std::string name_;
  std::int64_t capacity_;
  mutable std::mutex mutex_;
  std::int64_t used_ = 0;
  std::int64_t staging_ = 0;
  std::int64_t peak_ = 0;
  bool recording_ = false;
  std::int64_t tick_ = 0;
  std::string phase_label_;
  std::vector<MemorySample> timeline_;
  int trace_rank_ = obs::kNodeRank;
  std::string trace_name_;
};

// RAII accounting token. Move-only; discharges its pool on destruction.
class Allocation {
 public:
  Allocation() = default;
  Allocation(MemoryPool* pool, std::int64_t bytes) : pool_(pool), bytes_(bytes) {
    if (pool_ != nullptr) pool_->charge(bytes_);
  }
  Allocation(Allocation&& other) noexcept { *this = std::move(other); }
  Allocation& operator=(Allocation&& other) noexcept {
    release();
    pool_ = std::exchange(other.pool_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    return *this;
  }
  Allocation(const Allocation&) = delete;
  Allocation& operator=(const Allocation&) = delete;
  ~Allocation() { release(); }

  void release() {
    if (pool_ != nullptr) {
      pool_->discharge(bytes_);
      pool_ = nullptr;
      bytes_ = 0;
    }
  }

  std::int64_t bytes() const { return bytes_; }
  bool active() const { return pool_ != nullptr; }

 private:
  MemoryPool* pool_ = nullptr;
  std::int64_t bytes_ = 0;
};

// RAII staging token for an in-flight transfer: reserves destination bytes
// at issue time, releases them when the transfer retires (and the real data
// charge takes over) or when an abandoned transfer's closure is destroyed.
class StagingCharge {
 public:
  StagingCharge() = default;
  StagingCharge(MemoryPool* pool, std::int64_t bytes) : pool_(pool), bytes_(bytes) {
    if (pool_ != nullptr) pool_->charge_staging(bytes_);
  }
  StagingCharge(StagingCharge&& other) noexcept { *this = std::move(other); }
  StagingCharge& operator=(StagingCharge&& other) noexcept {
    release();
    pool_ = std::exchange(other.pool_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    return *this;
  }
  StagingCharge(const StagingCharge&) = delete;
  StagingCharge& operator=(const StagingCharge&) = delete;
  ~StagingCharge() { release(); }

  void release() {
    if (pool_ != nullptr) {
      pool_->discharge_staging(bytes_);
      pool_ = nullptr;
      bytes_ = 0;
    }
  }

 private:
  MemoryPool* pool_ = nullptr;
  std::int64_t bytes_ = 0;
};

}  // namespace fpdt::runtime
