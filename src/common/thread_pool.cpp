#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/logging.h"

namespace fpdt {

namespace {

std::atomic<int> g_workers{[]() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<int>(static_cast<int>(hw == 0 ? 1 : hw), 1, 16);
}()};

thread_local int g_parallel_depth = 0;

struct RegionDepthScope {
  explicit RegionDepthScope(int depth) : prev(g_parallel_depth) { g_parallel_depth = depth; }
  ~RegionDepthScope() { g_parallel_depth = prev; }
  const int prev;
};

// One fork-join: the body, a shared index counter and the first failure.
// The caller and every helper that joins run the same claim loop, and every
// index runs in the caller's context: emulated rank `rank` (kRankIsIndex:
// the index itself), work phase `phase` and parallel-region depth `depth`.
struct Job {
  static constexpr int kRankIsIndex = -2;

  Job(const std::function<void(int)>& body, int count, int body_rank, int work_phase,
      int region_depth)
      : fn(&body), n(count), rank(body_rank), phase(work_phase), depth(region_depth) {}

  void run() {
    for (;;) {
      // Fail fast: once any body threw, stop claiming new indices so the
      // join (and the rethrow) is not delayed by unstarted bodies — a rank
      // failure aborts the collective step anyway.
      if (cancelled.load(std::memory_order_acquire)) return;
      const int i = next.fetch_add(1);
      if (i >= n) return;
      try {
        // A rank fork's body *is* emulated rank i: tag the thread so log
        // lines and trace scopes carry the rank without plumbing it
        // through, and kernel FLOPs charged inside it land in the phase
        // that forked it. A tile keeps its caller's rank.
        RankScope rank_scope(rank == kRankIsIndex ? i : rank);
        WorkPhaseTag phase_tag(phase);
        RegionDepthScope region(depth);
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
  const int rank;
  const int phase;
  const int depth;
  std::atomic<int> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Helper bookkeeping, guarded by the pool mutex.
  int open = 0;                  // helper slots still unclaimed
  int active = 0;                // helpers inside run()
  std::condition_variable done;  // the owner: `active` dropped to 0
};

// Process-wide persistent helpers, parked on a condition variable between
// jobs (no spinning: an idle helper costs no CPU). A caller publishes its
// job with some open helper slots, runs the claim loop itself, then closes
// the slots and waits only for helpers that actually joined — a helper
// that wakes late finds no slot and parks again, so no job ever waits for
// a thread to be scheduled. Several jobs may be open at once: one rank
// fork (one owner at a time) and any number of tile forks.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    // Never destroyed: parked helpers outlive static destruction, and a
    // parallel_for_ranks call from another static's destructor still works.
    static WorkerPool* pool = new WorkerPool;
    return *pool;
  }

  // Runs a rank fork on the caller plus up to `helpers` workers. Returns
  // false, without running anything, when another caller owns the rank
  // fork.
  bool try_run_ranks(Job& job, int helpers) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    int slots = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      grow_locked(helpers);
      slots = open_locked(job, std::min(helpers, threads_));
    }
    run(job, slots);
    busy_.store(false, std::memory_order_release);
    return true;
  }

  // Runs a tile fork on the caller plus up to `helpers` workers that are
  // parked right now, keeping the machine to `workers` threads in all.
  void run_tiles(Job& job, int helpers, int workers) {
    int slots = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      grow_locked(workers - 1);
      const int busy = threads_ - idle_;
      const int free = std::min(idle_, workers - 1 - busy) - open_total_;
      slots = open_locked(job, std::min(helpers, free));
    }
    run(job, slots);
  }

 private:
  int open_locked(Job& job, int slots) {
    if (slots <= 0) return 0;
    job.open = slots;
    open_total_ += slots;
    queue_.push_back(&job);
    return slots;
  }

  void close_locked(Job& job) {
    if (job.open == 0) return;
    open_total_ -= job.open;
    job.open = 0;
    queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
  }

  void run(Job& job, int slots) {
    for (int h = 0; h < slots; ++h) wake_.notify_one();
    job.run();
    if (slots == 0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    close_locked(job);
    job.done.wait(lock, [&] { return job.active == 0; });
  }

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
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ++idle_;
      wake_.wait(lock, [&] { return !queue_.empty(); });
      --idle_;
      Job* job = queue_.front();
      --open_total_;
      if (--job->open == 0) queue_.erase(queue_.begin());
      ++job->active;
      lock.unlock();
      job->run();
      lock.lock();
      // run() returned, so every index is claimed (or the job failed):
      // helpers that joined now would only wake to leave.
      close_locked(*job);
      if (--job->active == 0) job->done.notify_one();
    }
  }

  std::atomic<bool> busy_{false};  // a rank fork owns the pool
  std::mutex mutex_;
  std::condition_variable wake_;  // helpers: a job has open slots
  std::vector<Job*> queue_;       // jobs with open slots, oldest first
  int threads_ = 0;
  int idle_ = 0;        // helpers parked in wake_
  int open_total_ = 0;  // open slots over every queued job
};

}  // namespace

int parallel_workers() { return g_workers.load(std::memory_order_relaxed); }

bool in_parallel_region() { return g_parallel_depth > 0; }

void set_parallel_workers(int workers) {
  FPDT_CHECK_GE(workers, 1) << " worker count";
  g_workers.store(workers, std::memory_order_relaxed);
}

void parallel_for_ranks(int n, const std::function<void(int)>& fn) {
  Job job(fn, n, Job::kRankIsIndex, current_work_phase(), g_parallel_depth + 1);
  const int threads = std::min(n, parallel_workers());
  // Serial on the caller for one thread, for a nested call (the caller is
  // already one of the machine's busy workers), and when another thread
  // owns the pool — the contract promises "possibly concurrently" only.
  if (threads <= 1 || in_parallel_region() ||
      !WorkerPool::instance().try_run_ranks(job, threads - 1)) {
    job.run();
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void parallel_for_tiles(int n, const std::function<void(int)>& fn) {
  Job job(fn, n, current_rank(), current_work_phase(), g_parallel_depth);
  const int workers = parallel_workers();
  if (n <= 1 || workers <= 1) {
    job.run();
  } else {
    WorkerPool::instance().run_tiles(job, std::min(n, workers) - 1, workers);
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace fpdt
