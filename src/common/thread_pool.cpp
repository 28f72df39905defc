#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/check.h"
#include "common/logging.h"

namespace fpdt {

namespace {

std::atomic<int> g_workers{[]() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<int>(static_cast<int>(hw == 0 ? 1 : hw), 1, 16);
}()};

thread_local int g_parallel_depth = 0;

struct ParallelRegionScope {
  ParallelRegionScope() { ++g_parallel_depth; }
  ~ParallelRegionScope() { --g_parallel_depth; }
};

// One fork-join: the body, a shared index counter and the first failure.
// The caller and every helper that joins run the same claim loop.
struct Job {
  Job(const std::function<void(int)>& body, int count, int work_phase)
      : fn(&body), n(count), phase(work_phase) {}

  void run() {
    for (;;) {
      // Fail fast: once any rank threw, stop claiming new indices so the
      // join (and the rethrow) is not delayed by unstarted bodies — a rank
      // failure aborts the collective step anyway.
      if (cancelled.load(std::memory_order_acquire)) return;
      const int i = next.fetch_add(1);
      if (i >= n) return;
      try {
        // The loop body *is* emulated rank i: tag the thread so log lines
        // and trace scopes carry the rank without plumbing it through, and
        // kernel FLOPs charged inside it land in the phase that forked it.
        RankScope rank_scope(i);
        WorkPhaseTag phase_tag(phase);
        ParallelRegionScope region;
        (*fn)(i);
      } catch (...) {
        cancelled.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  const std::function<void(int)>* fn;
  const int n;
  const int phase;
  std::atomic<int> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
};

// Process-wide persistent helpers, parked on a condition variable between
// jobs (no spinning: an idle helper costs no CPU). One caller at a time
// owns the pool; it publishes a job with `open` helper slots, runs the
// claim loop itself, then closes the slots and waits only for helpers that
// actually joined — a helper that wakes late finds no slot and parks again,
// so no job ever waits for a thread to be scheduled.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    // Never destroyed: parked helpers outlive static destruction, and a
    // parallel_for_ranks call from another static's destructor still works.
    static WorkerPool* pool = new WorkerPool;
    return *pool;
  }

  // Runs `job` on the caller plus up to `helpers` parked workers. Returns
  // false, without running anything, when another caller owns the pool.
  bool try_run(Job& job, int helpers) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      grow_locked(helpers);
      job_ = &job;
      open_ = std::min(helpers, threads_);
      ++generation_;
    }
    for (int h = 0; h < helpers; ++h) wake_.notify_one();
    job.run();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      open_ = 0;
      done_.wait(lock, [this] { return active_ == 0; });
      job_ = nullptr;
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  void grow_locked(int helpers) {
    while (threads_ < helpers) {
      try {
        std::thread(&WorkerPool::park, this).detach();
      } catch (const std::system_error&) {
        return;  // run with the helpers we have; the caller covers the rest
      }
      ++threads_;
    }
  }

  void park() {
    std::uint64_t seen = 0;  // last generation this helper joined
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return open_ > 0 && generation_ != seen; });
      seen = generation_;
      --open_;
      ++active_;
      Job* job = job_;
      lock.unlock();
      job->run();
      lock.lock();
      if (--active_ == 0) done_.notify_one();
    }
  }

  std::atomic<bool> busy_{false};
  std::mutex mutex_;
  std::condition_variable wake_;  // helpers: a job has open slots
  std::condition_variable done_;  // owner: every joined helper finished
  int threads_ = 0;
  Job* job_ = nullptr;
  int open_ = 0;    // helper slots still unclaimed in this generation
  int active_ = 0;  // helpers inside job_->run()
  std::uint64_t generation_ = 0;
};

}  // namespace

int parallel_workers() { return g_workers.load(std::memory_order_relaxed); }

bool in_parallel_region() { return g_parallel_depth > 0; }

void set_parallel_workers(int workers) {
  FPDT_CHECK_GE(workers, 1) << " worker count";
  g_workers.store(workers, std::memory_order_relaxed);
}

void parallel_for_ranks(int n, const std::function<void(int)>& fn) {
  Job job(fn, n, current_work_phase());
  const int threads = std::min(n, parallel_workers());
  // Serial on the caller for one thread, for a nested call (the caller is
  // already one of the machine's busy workers), and when another thread
  // owns the pool — the contract promises "possibly concurrently" only.
  if (threads <= 1 || in_parallel_region() ||
      !WorkerPool::instance().try_run(job, threads - 1)) {
    job.run();
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace fpdt
