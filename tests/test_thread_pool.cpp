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

TEST(ThreadPoolTest, FpdtStepBitIdenticalSerialVsParallel) {
  // The headline determinism property: a training step of every strategy
  // forked across threads, followed by a ZeRO-3 sharded optimizer step,
  // produces exactly the same loss, gradients and updated weights as
  // serial — under both kernel backends (simd forks rows at top level),
  // for GPT and for Llama's gated FFN.
  data::SyntheticCorpus corpus(48, 9);
  const auto tokens = corpus.sample(65);

  struct Result {
    double loss = 0.0;
    std::vector<Tensor> grads, weights;
  };
  auto run = [&](const nn::ModelConfig& cfg, parallel::Strategy s, const std::string& backend,
                 int workers) {
    const int saved = parallel_workers();
    set_parallel_workers(workers);
    core::FpdtConfig fcfg;
    fcfg.chunks_per_rank = 4;
    fcfg.kernel_backend = backend;
    nn::Model model(cfg, 55);
    auto trainer = parallel::make_trainer(s, model, 4, fcfg);
    Result res;
    res.loss = trainer->train_step_grads(tokens);
    model.visit_params([&](nn::Param& p) { res.grads.push_back(p.grad.clone()); });
    zero::ShardedOptimizer opt(trainer->env(), zero::ZeroConfig{3});
    opt.step([&](const nn::ParamVisitor& fn) { model.visit_params(fn); });
    model.visit_params([&](nn::Param& p) { res.weights.push_back(p.value.clone()); });
    set_parallel_workers(saved);
    return res;
  };

  for (const nn::ModelConfig& cfg : {nn::tiny_gpt(32, 2, 4, 48), nn::tiny_llama(32, 1, 4, 4, 48)}) {
    for (const parallel::Strategy s : parallel::kStrategies) {
      for (const std::string backend : {"scalar", "simd"}) {
        SCOPED_TRACE(std::string(cfg.arch == nn::Arch::kLlama ? "llama/" : "gpt/") + parallel::strategy_name(s) +
                     "/" + backend);
        const Result serial = run(cfg, s, backend, 1);
        const Result forked = run(cfg, s, backend, 4);
        EXPECT_EQ(std::memcmp(&serial.loss, &forked.loss, sizeof(double)), 0);
        ASSERT_EQ(serial.grads.size(), forked.grads.size());
        for (std::size_t i = 0; i < serial.grads.size(); ++i) {
          EXPECT_TRUE(bit_equal(serial.grads[i], forked.grads[i])) << "grad " << i;
          EXPECT_TRUE(bit_equal(serial.weights[i], forked.weights[i])) << "weight " << i;
        }
      }
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
