// Wall-clock microbenchmarks (google-benchmark) of the functional kernels:
// online blockwise attention vs naive reference, chunked vs monolithic loss
// head, FPDT block step vs Ulysses block step. These time the *emulation*,
// not A100 silicon — they exist to keep the functional layer honest about
// its own costs and to catch algorithmic regressions (e.g. an accidental
// O(s^2) copy in the chunk pipeline).
#include <benchmark/benchmark.h>

#include <limits>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fpdt_block.h"
#include "kernels/backend.h"
#include "data/rank_ordinal.h"
#include "nn/attention.h"
#include "nn/lm_head.h"
#include "nn/generate.h"
#include "nn/inference.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "parallel/megatron_sp.h"
#include "sim/timeline.h"
#include "tensor/tensor.h"

namespace {

using namespace fpdt;

void BM_MatmulNt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(128)->Arg(256);

// ---- backend-parameterized kernel benchmarks ------------------------------
// Second benchmark arg selects the math backend (0 = scalar reference,
// 1 = simd). Run side by side these put a number on the tentpole: how much
// of the emulated step is GEMM/attention math the simd backend recovers.

const char* backend_of(std::int64_t arg) { return arg == 0 ? "scalar" : "simd"; }

void BM_GemmBackend(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  kernels::BackendScope scope(backend_of(state.range(1)));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetLabel(kernels::active_name());
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBackend)->Args({128, 0})->Args({128, 1})->Args({512, 0})->Args({512, 1});

void BM_AttentionBackend(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  kernels::BackendScope scope(backend_of(state.range(1)));
  Rng rng(2);
  Tensor q = Tensor::randn({s, 8, 64}, rng);
  Tensor k = Tensor::randn({s, 2, 64}, rng);  // GQA group of 4
  Tensor v = Tensor::randn({s, 2, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::reference_attention_forward(q, k, v, true));
  }
  state.SetLabel(kernels::active_name());
}
BENCHMARK(BM_AttentionBackend)->Args({256, 0})->Args({256, 1})->Args({1024, 0})->Args({1024, 1});

void BM_OnlineAttnStepBackend(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  kernels::BackendScope scope(backend_of(state.range(1)));
  Rng rng(3);
  Tensor q = Tensor::randn({s, 8, 64}, rng);
  Tensor k = Tensor::randn({s, 2, 64}, rng);
  Tensor v = Tensor::randn({s, 2, 64}, rng);
  for (auto _ : state) {
    nn::OnlineAttnState st = nn::OnlineAttnState::create(s, 8, 64);
    nn::online_attn_step(st, q, k, v, true, 0, 0);
    benchmark::DoNotOptimize(nn::online_attn_finalize(st));
  }
  state.SetLabel(kernels::active_name());
}
BENCHMARK(BM_OnlineAttnStepBackend)->Args({512, 0})->Args({512, 1});

// One FPDT chunk pair at the train-longctx shape: 512-token chunks of
// [512, 2, 16] q/k/v, causal, chunk i's queries against chunk j's keys.
// diag = 0 is j < i (every key visible), diag = 1 is j = i. The two kernel
// benches below time the kernels alone, on one worker, so no fork of the
// simd backend shows in them; BM_FpdtRankAttnD16 times them as rank bodies
// issue them.
struct D16ChunkPair {
  static constexpr std::int64_t kChunk = 512, kHeads = 2, kDim = 16;
  kernels::AttnDims dm{kChunk, kChunk, kHeads, kHeads, kDim, 1};
  std::int64_t q_pos0;
  Tensor q, k, v, dout, lse, D;

  explicit D16ChunkPair(bool diag) : q_pos0(diag ? 0 : kChunk) {
    Rng rng(7);
    q = Tensor::randn({kChunk, kHeads, kDim}, rng);
    k = Tensor::randn({kChunk, kHeads, kDim}, rng);
    v = Tensor::randn({kChunk, kHeads, kDim}, rng);
    dout = Tensor::randn({kChunk, kHeads, kDim}, rng);
    Tensor out = Tensor::full({kChunk, kHeads, kDim}, 0.0f);
    lse = Tensor::full({kChunk, kHeads}, 0.0f);
    D = Tensor::full({kChunk, kHeads}, 0.0f);
    kernels::backend("scalar").attn_forward(q.data(), k.data(), v.data(), out.data(),
                                            lse.data(), dm, true, q_pos0, 0);
    for (std::int64_t r = 0; r < kChunk * kHeads; ++r) {
      for (std::int64_t p = 0; p < kDim; ++p) {
        D.data()[r] += dout.data()[r * kDim + p] * out.data()[r * kDim + p];
      }
    }
  }
};

struct ScopedWorkers {
  const int saved = parallel_workers();
  explicit ScopedWorkers(int workers) { set_parallel_workers(workers); }
  ~ScopedWorkers() { set_parallel_workers(saved); }
};

void BM_OnlineAttnStepD16(benchmark::State& state) {
  const kernels::Backend& be = kernels::backend(backend_of(state.range(0)));
  const D16ChunkPair in(state.range(1) != 0);
  const ScopedWorkers one(1);
  Tensor acc = Tensor::full({in.kChunk, in.kHeads, in.kDim}, 0.0f);
  Tensor row_max = Tensor::full({in.kChunk, in.kHeads}, 0.0f);
  Tensor row_sum = Tensor::full({in.kChunk, in.kHeads}, 0.0f);
  for (auto _ : state) {
    // Two steps into a fresh state, as the FPDT forward folds chunks.
    row_max.fill_(-std::numeric_limits<float>::infinity());
    row_sum.fill_(0.0f);
    acc.fill_(0.0f);
    for (int s = 0; s < 2; ++s) {
      be.online_attn_step(acc.data(), row_max.data(), row_sum.data(), in.q.data(), in.k.data(),
                          in.v.data(), in.dm, true, in.q_pos0, 0);
    }
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(be.name());
}
BENCHMARK(BM_OnlineAttnStepD16)
    ->ArgNames({"simd", "diag"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

void BM_OnlineAttnBackwardD16(benchmark::State& state) {
  const kernels::Backend& be = kernels::backend(backend_of(state.range(0)));
  const D16ChunkPair in(state.range(1) != 0);
  const ScopedWorkers one(1);
  Tensor dq = Tensor::full({in.kChunk, in.kHeads, in.kDim}, 0.0f);
  Tensor dk = Tensor::full({in.kChunk, in.kHeads, in.kDim}, 0.0f);
  Tensor dv = Tensor::full({in.kChunk, in.kHeads, in.kDim}, 0.0f);
  for (auto _ : state) {
    be.online_attn_backward_step(in.q.data(), in.k.data(), in.v.data(), in.dout.data(),
                                 in.lse.data(), in.D.data(), in.dm, true, in.q_pos0, 0,
                                 dq.data(), dk.data(), dv.data());
    benchmark::DoNotOptimize(dq.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(be.name());
}
BENCHMARK(BM_OnlineAttnBackwardD16)
    ->ArgNames({"simd", "diag"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// train-longctx's attention as its rank bodies run it: two ranks at four
// workers, each folding the chunk pair into a fresh state (two forward
// steps) and running the pair's backward step. World 2 leaves two workers
// idle, which the ranks' KV-head-group tiles take. Real time: the work
// spreads over threads.
void BM_FpdtRankAttnD16(benchmark::State& state) {
  const kernels::Backend& be = kernels::backend("simd");
  const D16ChunkPair in(state.range(0) != 0);
  const ScopedWorkers four(4);
  using Pair = D16ChunkPair;
  struct RankState {
    static Tensor rows() { return Tensor::full({Pair::kChunk, Pair::kHeads, Pair::kDim}, 0.0f); }
    static Tensor stats() { return Tensor::full({Pair::kChunk, Pair::kHeads}, 0.0f); }
    Tensor acc = rows(), row_max = stats(), row_sum = stats();
    Tensor dq = rows(), dk = rows(), dv = rows();
  };
  std::vector<RankState> ranks(2);
  for (auto _ : state) {
    parallel_for_ranks(2, [&](int r) {
      RankState& st = ranks[static_cast<std::size_t>(r)];
      st.row_max.fill_(-std::numeric_limits<float>::infinity());
      st.row_sum.fill_(0.0f);
      st.acc.fill_(0.0f);
      for (int s = 0; s < 2; ++s) {
        be.online_attn_step(st.acc.data(), st.row_max.data(), st.row_sum.data(), in.q.data(),
                            in.k.data(), in.v.data(), in.dm, true, in.q_pos0, 0);
      }
      be.online_attn_backward_step(in.q.data(), in.k.data(), in.v.data(), in.dout.data(),
                                   in.lse.data(), in.D.data(), in.dm, true, in.q_pos0, 0,
                                   st.dq.data(), st.dk.data(), st.dv.data());
      benchmark::DoNotOptimize(st.dq.data());
    });
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FpdtRankAttnD16)->ArgName("diag")->Arg(0)->Arg(1)->UseRealTime();

void BM_ReferenceAttention(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Rng rng(2);
  Tensor q = Tensor::randn({s, 4, 32}, rng);
  Tensor k = Tensor::randn({s, 4, 32}, rng);
  Tensor v = Tensor::randn({s, 4, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::reference_attention_forward(q, k, v, true));
  }
}
BENCHMARK(BM_ReferenceAttention)->Arg(128)->Arg(512);

void BM_OnlineAttentionChunked(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  const std::int64_t chunks = 8;
  const std::int64_t c = s / chunks;
  Rng rng(3);
  Tensor q = Tensor::randn({s, 4, 32}, rng);
  Tensor k = Tensor::randn({s, 4, 32}, rng);
  Tensor v = Tensor::randn({s, 4, 32}, rng);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < chunks; ++i) {
      nn::OnlineAttnState st = nn::OnlineAttnState::create(c, 4, 32);
      for (std::int64_t j = 0; j <= i; ++j) {
        nn::online_attn_step(st, q.slice0(i * c, (i + 1) * c), k.slice0(j * c, (j + 1) * c),
                             v.slice0(j * c, (j + 1) * c), true, i * c, j * c);
      }
      benchmark::DoNotOptimize(nn::online_attn_finalize(st));
    }
  }
}
BENCHMARK(BM_OnlineAttentionChunked)->Arg(128)->Arg(512);

void BM_LmHeadChunked(benchmark::State& state) {
  const std::int64_t chunks = state.range(0);
  const std::int64_t s = 256, d = 64, vocab = 512;
  Rng rng(4);
  nn::LmHead head("h", d, vocab, rng);
  Tensor x = Tensor::randn({s, d}, rng);
  std::vector<std::int32_t> targets(s, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.forward_backward(x, targets, chunks, s));
  }
}
BENCHMARK(BM_LmHeadChunked)->Arg(1)->Arg(16);

void BM_FpdtBlockStep(benchmark::State& state) {
  const bool offload = state.range(0) != 0;
  const nn::ModelConfig cfg = nn::tiny_gpt(64, 1, 4, 64);
  Rng wrng(5);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(6);
  Tensor x = Tensor::randn({512, cfg.d_model}, xrng);
  Tensor dz = Tensor::randn({512, cfg.d_model}, xrng);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = 4;
  fcfg.offload = offload;
  core::FpdtEnv env(4, fcfg);
  core::FpdtBlockExecutor exec(block, 0, env);
  data::RankOrdinalSharder sh(4, 4);
  auto xs = sh.shard_tensor(x);
  auto dzs = sh.shard_tensor(dz);
  for (auto _ : state) {
    exec.forward(xs);
    benchmark::DoNotOptimize(exec.backward(dzs, xs));
  }
}
BENCHMARK(BM_FpdtBlockStep)->Arg(0)->Arg(1);

void BM_GenerateRecompute(benchmark::State& state) {
  nn::Model model(nn::tiny_gpt(64, 2, 4, 64), 1);
  Rng prng(2);
  std::vector<std::int32_t> prompt(64, 3);
  nn::SampleOptions greedy;
  greedy.temperature = 0.0;
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(nn::generate(model, prompt, 8, greedy, rng));
  }
}
BENCHMARK(BM_GenerateRecompute);

void BM_GenerateKvCache(benchmark::State& state) {
  nn::Model model(nn::tiny_gpt(64, 2, 4, 64), 1);
  std::vector<std::int32_t> prompt(64, 3);
  nn::SampleOptions greedy;
  greedy.temperature = 0.0;
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(nn::generate_cached(model, prompt, 8, greedy, rng, 16));
  }
}
BENCHMARK(BM_GenerateKvCache);

void BM_MegatronSpBlockStep(benchmark::State& state) {
  const nn::ModelConfig cfg = nn::tiny_gpt(64, 1, 4, 64);
  Rng wrng(5);
  nn::TransformerBlock block("b", cfg, wrng);
  core::FpdtConfig fcfg;
  fcfg.cache_forward_outputs = false;
  core::FpdtEnv env(4, fcfg);
  parallel::MegatronSpBlockExecutor exec(block, env);
  Rng xrng(6);
  Tensor x = Tensor::randn({512, cfg.d_model}, xrng);
  Tensor dz = Tensor::randn({512, cfg.d_model}, xrng);
  std::vector<Tensor> xs, dzs;
  for (int r = 0; r < 4; ++r) {
    xs.push_back(x.slice0(r * 128, (r + 1) * 128).clone());
    dzs.push_back(dz.slice0(r * 128, (r + 1) * 128).clone());
  }
  for (auto _ : state) {
    exec.forward(xs);
    benchmark::DoNotOptimize(exec.backward(dzs, xs));
  }
}
BENCHMARK(BM_MegatronSpBlockStep);

// Cost of one parallel_for_ranks fork-join with an empty body: the fixed
// price every rank-parallel loop pays on top of its work, in the caller's
// real time (publishing the job, waking helpers, the join).
void BM_ParallelForRanksForkJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    parallel_for_ranks(n, [](int i) { benchmark::DoNotOptimize(i); });
  }
}
BENCHMARK(BM_ParallelForRanksForkJoin)->Arg(2)->Arg(4)->UseRealTime();

void BM_PipelineSimScaling(benchmark::State& state) {
  // The simulator itself must stay cheap: a 32-chunk FPDT layer builds and
  // runs thousands of tasks.
  const nn::ModelConfig cfg = nn::llama_8b();
  const sim::CostModel cm(sim::a100_80g_node(), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::fpdt_layer_timing(cfg, cm, 512 * 1024, 32, true, true));
  }
}
BENCHMARK(BM_PipelineSimScaling);

}  // namespace

BENCHMARK_MAIN();
