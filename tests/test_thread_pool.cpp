// Thread-pool semantics and, critically, determinism of the forked SPMD
// execution: the parallel per-rank loops of every strategy must produce
// bit-identical results to serial execution (per-rank state is disjoint;
// reduction orders are unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "nn/model.h"
#include "parallel/strategy.h"
#include "parallel/zero/sharded_optimizer.h"
#include "tests/test_util.h"

namespace fpdt {
namespace {

// A per-OS-thread identity that is never recycled (std::thread::id values
// can be reused once a thread is joined).
int thread_token() {
  static std::atomic<int> next{0};
  thread_local const int token = next.fetch_add(1);
  return token;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(64);
  parallel_for_ranks(64, [&](int i) { counts[static_cast<std::size_t>(i)]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ZeroAndOneDegenerate) {
  int calls = 0;
  parallel_for_ranks(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for_ranks(1, [&](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  EXPECT_THROW(
      parallel_for_ranks(8, [&](int i) {
        if (i == 3) throw FpdtError("worker failure");
      }),
      FpdtError);
}

TEST(ThreadPoolTest, FailFastCancelsUnstartedBodies) {
  // After one body throws, indices not yet claimed must never start: with
  // slow bodies and few workers, far fewer than n bodies run. Without the
  // cancellation flag all 64 would execute.
  const int saved = parallel_workers();
  set_parallel_workers(4);
  constexpr int kN = 64;
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for_ranks(kN,
                         [&](int i) {
                           executed.fetch_add(1);
                           if (i == 0) throw FpdtError("injected worker failure");
                           std::this_thread::sleep_for(std::chrono::milliseconds(2));
                         }),
      FpdtError);
  set_parallel_workers(saved);
  // Index 0 runs on some worker's first claim; the other three workers get
  // at most a couple of bodies in before the flag is visible. Anything well
  // below kN proves cancellation; allow generous slack for scheduling.
  EXPECT_LT(executed.load(), kN / 2);
  EXPECT_GE(executed.load(), 1);
}

TEST(ThreadPoolTest, WorkerCountConfigurable) {
  const int saved = parallel_workers();
  set_parallel_workers(1);
  EXPECT_EQ(parallel_workers(), 1);
  int order_check = 0;
  // With one worker, execution is in index order.
  parallel_for_ranks(8, [&](int i) {
    EXPECT_EQ(i, order_check++);
  });
  set_parallel_workers(saved);
  EXPECT_THROW(set_parallel_workers(0), FpdtError);
}

TEST(ThreadPoolTest, WorkersAreReused) {
  // Persistent workers: 200 fork-joins run on at most parallel_workers()
  // distinct threads (the caller included), not on fresh threads per call.
  // Sleeping bodies make helpers, not just the caller, claim indices. No
  // test here asks for more than 8 workers, so helpers that earlier tests
  // in this process created stay within the bound.
  const int saved = parallel_workers();
  set_parallel_workers(std::max(saved, 8));
  const int workers = parallel_workers();
  std::mutex mutex;
  std::set<int> tokens;
  for (int call = 0; call < 200; ++call) {
    parallel_for_ranks(workers, [&](int) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        tokens.insert(thread_token());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  set_parallel_workers(saved);
  EXPECT_GT(static_cast<int>(tokens.size()), 1);  // helpers did take part
  EXPECT_LE(static_cast<int>(tokens.size()), workers);
}

TEST(ThreadPoolTest, NestedCallRunsInline) {
  std::vector<std::atomic<int>> counts(4 * 8);
  std::atomic<int> foreign{0};
  parallel_for_ranks(4, [&](int outer) {
    const int token = thread_token();
    parallel_for_ranks(8, [&](int inner) {
      if (thread_token() != token) foreign++;
      EXPECT_TRUE(in_parallel_region());
      EXPECT_EQ(current_rank(), inner);
      counts[static_cast<std::size_t>(outer * 8 + inner)]++;
    });
    EXPECT_EQ(current_rank(), outer);  // the nested RankScope unwound
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ThreadPoolTest, ConcurrentCallersEachSeeEveryIndexOnce) {
  // A second caller arriving while the pool is busy runs its own loop
  // serially; neither caller may lose or duplicate an index.
  constexpr int kN = 32;
  auto caller = [](std::atomic<int>& bad) {
    for (int call = 0; call < 50; ++call) {
      std::vector<std::atomic<int>> counts(kN);
      parallel_for_ranks(kN, [&](int i) { counts[static_cast<std::size_t>(i)]++; });
      for (const auto& c : counts) {
        if (c.load() != 1) bad++;
      }
    }
  };
  std::atomic<int> bad_a{0}, bad_b{0};
  std::thread a(caller, std::ref(bad_a));
  std::thread b(caller, std::ref(bad_b));
  a.join();
  b.join();
  EXPECT_EQ(bad_a.load(), 0);
  EXPECT_EQ(bad_b.load(), 0);
}

// ---- tile forks ---------------------------------------------------------------

struct ScopedWorkers {
  const int saved = parallel_workers();
  explicit ScopedWorkers(int workers) { set_parallel_workers(workers); }
  ~ScopedWorkers() { set_parallel_workers(saved); }
};

// Counts this thread in and waits until `n` threads have arrived; false
// after a 10 s deadline, so a missing thread fails the test, not the run.
bool arrive_and_wait(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPoolTest, TileForksInRankBodiesUseIdleHelpers) {
  // Two rank bodies on four workers leave two helpers parked; each body's
  // two-tile fork may claim one, so the tiles reach more threads than the
  // two the rank bodies run on — and never more than four at once.
  const ScopedWorkers four(4);
  std::mutex mutex;
  std::set<int> tokens;
  std::atomic<int> inflight{0}, most{0};
  for (int call = 0; call < 50; ++call) {
    parallel_for_ranks(2, [&](int) {
      parallel_for_tiles(2, [&](int) {
        const int now = inflight.fetch_add(1) + 1;
        for (int seen = most.load(); now > seen && !most.compare_exchange_weak(seen, now);) {
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          tokens.insert(thread_token());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inflight.fetch_sub(1);
      });
    });
  }
  EXPECT_GT(static_cast<int>(tokens.size()), 2);
  EXPECT_LE(most.load(), 4);
}

TEST(ThreadPoolTest, TileForkRunsInlineWithoutIdleHelpers) {
  // Four rank bodies on four workers hold every helper (the barriers keep
  // all four bodies running), so each body's tile fork finds none idle and
  // runs every tile on its own thread instead of waiting.
  const ScopedWorkers four(4);
  std::atomic<int> before{0}, after{0}, foreign{0}, tiles{0};
  std::atomic<bool> timed_out{false};
  parallel_for_ranks(4, [&](int) {
    if (!arrive_and_wait(before, 4)) timed_out = true;
    const int token = thread_token();
    parallel_for_tiles(4, [&](int) {
      if (thread_token() != token) foreign++;
      tiles++;
    });
    if (!arrive_and_wait(after, 4)) timed_out = true;
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(tiles.load(), 16);
}

TEST(ThreadPoolTest, TileKeepsCallerRankPhaseAndRegion) {
  const ScopedWorkers four(4);
  std::atomic<int> bad{0};
  const auto expect_context = [&](int rank, int phase, bool region) {
    parallel_for_tiles(8, [&](int) {
      if (current_rank() != rank || current_work_phase() != phase ||
          in_parallel_region() != region) {
        bad++;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  };
  {
    RankScope rank(7);
    WorkPhaseTag phase(5);
    expect_context(7, 5, false);
  }
  expect_context(-1, 0, false);  // helpers restored their own context
  {
    WorkPhaseTag phase(3);
    parallel_for_ranks(2, [&](int r) {
      expect_context(r, 3, true);
      EXPECT_EQ(current_rank(), r);
    });
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ThreadPoolTest, TileExceptionRethrownOnItsCallerOnly) {
  const ScopedWorkers four(4);
  std::atomic<int> rank1_tiles{0};
  bool caught[2] = {false, false};
  parallel_for_ranks(2, [&](int r) {
    try {
      parallel_for_tiles(4, [&](int t) {
        if (r == 0 && t == 1) throw FpdtError("tile failure");
        if (r == 1) rank1_tiles++;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    } catch (const FpdtError&) {
      caught[r] = true;
    }
  });
  EXPECT_TRUE(caught[0]);
  EXPECT_FALSE(caught[1]);
  EXPECT_EQ(rank1_tiles.load(), 4);
  EXPECT_THROW(parallel_for_tiles(4,
                                  [](int t) {
                                    if (t == 2) throw FpdtError("tile failure");
                                  }),
               FpdtError);
}

TEST(ThreadPoolTest, ConcurrentTileCallersEachSeeEveryIndexOnce) {
  // Tile forks from several top-level threads share the helpers; none may
  // lose or duplicate an index.
  const ScopedWorkers four(4);
  constexpr int kN = 32;
  auto caller = [](std::atomic<int>& bad) {
    for (int call = 0; call < 50; ++call) {
      std::vector<std::atomic<int>> counts(kN);
      parallel_for_tiles(kN, [&](int i) { counts[static_cast<std::size_t>(i)]++; });
      for (const auto& c : counts) {
        if (c.load() != 1) bad++;
      }
    }
  };
  std::atomic<int> bad[3] = {0, 0, 0};
  std::thread a(caller, std::ref(bad[0]));
  std::thread b(caller, std::ref(bad[1]));
  std::thread c(caller, std::ref(bad[2]));
  a.join();
  b.join();
  c.join();
  for (const auto& x : bad) EXPECT_EQ(x.load(), 0);
}

TEST(ThreadPoolTest, RunsEveryIndexAfterABodyThrew) {
  EXPECT_THROW(parallel_for_ranks(8, [](int i) {
                 if (i == 1) throw FpdtError("worker failure");
               }),
               FpdtError);
  std::vector<std::atomic<int>> counts(16);
  parallel_for_ranks(16, [&](int i) { counts[static_cast<std::size_t>(i)]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, WorkerCountChangesBetweenCalls) {
  const int saved = parallel_workers();
  for (const int workers : {2, 8, 2}) {
    set_parallel_workers(workers);
    std::mutex mutex;
    std::set<int> tokens;
    std::vector<std::atomic<int>> counts(16);
    parallel_for_ranks(16, [&](int i) {
      counts[static_cast<std::size_t>(i)]++;
      std::lock_guard<std::mutex> lock(mutex);
      tokens.insert(thread_token());
    });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1) << workers << " workers";
    EXPECT_LE(static_cast<int>(tokens.size()), workers);
  }
  set_parallel_workers(saved);
}

struct StepResult {
  double loss = 0.0;
  std::vector<Tensor> grads, weights;
};

// One training step of `s` on a fresh model at `workers` pool workers,
// followed by a ZeRO-3 sharded optimizer step.
StepResult run_step(const nn::ModelConfig& cfg, parallel::Strategy s, const std::string& backend,
                    int world, std::int64_t chunks, const std::vector<std::int32_t>& tokens,
                    int workers) {
  const ScopedWorkers scoped(workers);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = chunks;
  fcfg.kernel_backend = backend;
  nn::Model model(cfg, 55);
  auto trainer = parallel::make_trainer(s, model, world, fcfg);
  StepResult res;
  res.loss = trainer->train_step_grads(tokens);
  model.visit_params([&](nn::Param& p) { res.grads.push_back(p.grad.clone()); });
  zero::ShardedOptimizer opt(trainer->env(), zero::ZeroConfig{3});
  opt.step([&](const nn::ParamVisitor& fn) { model.visit_params(fn); });
  model.visit_params([&](nn::Param& p) { res.weights.push_back(p.value.clone()); });
  return res;
}

void expect_bit_equal(const StepResult& serial, const StepResult& forked) {
  EXPECT_EQ(std::memcmp(&serial.loss, &forked.loss, sizeof(double)), 0);
  ASSERT_EQ(serial.grads.size(), forked.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i) {
    EXPECT_TRUE(bit_equal(serial.grads[i], forked.grads[i])) << "grad " << i;
    EXPECT_TRUE(bit_equal(serial.weights[i], forked.weights[i])) << "weight " << i;
  }
}

TEST(ThreadPoolTest, FpdtStepBitIdenticalSerialVsParallel) {
  // The headline determinism property: a training step of every strategy
  // forked across threads, followed by a ZeRO-3 sharded optimizer step,
  // produces exactly the same loss, gradients and updated weights as
  // serial — under both kernel backends (simd forks rows at top level),
  // for GPT and for Llama's gated FFN, at every worker count up to 4.
  data::SyntheticCorpus corpus(48, 9);
  const auto tokens = corpus.sample(65);
  for (const nn::ModelConfig& cfg : {nn::tiny_gpt(32, 2, 4, 48), nn::tiny_llama(32, 1, 4, 4, 48)}) {
    for (const parallel::Strategy s : parallel::kStrategies) {
      for (const std::string backend : {"scalar", "simd"}) {
        const StepResult serial = run_step(cfg, s, backend, 4, 4, tokens, 1);
        for (const int workers : {2, 3, 4}) {
          SCOPED_TRACE(std::string(cfg.arch == nn::Arch::kLlama ? "llama/" : "gpt/") +
                       parallel::strategy_name(s) + "/" + backend + "/" +
                       std::to_string(workers) + " workers");
          expect_bit_equal(serial, run_step(cfg, s, backend, 4, 4, tokens, workers));
        }
      }
    }
  }
}

TEST(ThreadPoolTest, FpdtLongChunkStepBitIdenticalAcrossWorkers) {
  // World 2 over 4 or 8 heads with 512-row attention chunks: every rank body's
  // chunk attention runs as KV-head-group tiles on the helpers the two
  // ranks leave idle (the tiny models above hold one head per rank). The
  // Llama case has 2 query heads per KV head.
  data::SyntheticCorpus corpus(48, 11);
  const auto tokens = corpus.sample(1025);
  for (const nn::ModelConfig& cfg : {nn::tiny_gpt(64, 1, 4, 48), nn::tiny_llama(64, 1, 8, 4, 48)}) {
    const StepResult serial = run_step(cfg, parallel::Strategy::kFpdt, "simd", 2, 2, tokens, 1);
    for (const int workers : {2, 3, 4}) {
      SCOPED_TRACE(std::string(cfg.arch == nn::Arch::kLlama ? "llama/" : "gpt/") +
                   std::to_string(workers) + " workers");
      expect_bit_equal(serial,
                       run_step(cfg, parallel::Strategy::kFpdt, "simd", 2, 2, tokens, workers));
    }
  }
}

TEST(ThreadPoolTest, HostPoolAccountingConsistentUnderConcurrency) {
  // Stress the shared host pool from many threads; every charge must be
  // matched and the final occupancy must return to zero.
  runtime::MemoryPool pool("host", -1);
  parallel_for_ranks(16, [&](int) {
    for (int k = 0; k < 200; ++k) {
      runtime::Allocation a(&pool, 64);
      runtime::Allocation b(&pool, 128);
    }
  });
  EXPECT_EQ(pool.used(), 0);
  EXPECT_GE(pool.peak(), 192);
}

}  // namespace
}  // namespace fpdt
