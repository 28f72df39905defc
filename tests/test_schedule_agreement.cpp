// Schedule ↔ executor ↔ simulator agreement: core::ChunkSchedule is the one
// FPDT op list, so one executed FpdtBlockExecutor forward + backward must
// match it op for op —
//  - rank 0's compute regions, in order, carry exactly the labels of the
//    schedule's compute ops;
//  - rank 0's H2D and D2H byte counters equal the schedule's buffer bytes;
//  - every attention span's FLOPs equal what the simulator prices for that
//    op (sim::op_flops), exactly.
//  - on rank 0's virtual clock, every op starts no earlier than each op in
//    its `deps` ends (the executor waits on exactly what the simulator
//    prices: the backward step on its dq̂ fetch, a point-of-use fetch on the
//    compute that frees its buffer slot).
// Swept over GPT and GQA Llama, world 2/4, u 1/2/4, and every combination
// of offload, double buffering and forward-output caching.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/chunk_schedule.h"
#include "core/fpdt_block.h"
#include "data/rank_ordinal.h"
#include "nn/model_config.h"
#include "sim/timeline.h"

namespace fpdt {
namespace {

using core::ChunkSchedule;
using core::OpKind;
using core::ScheduleOp;

struct Executed {
  std::vector<runtime::StreamSpan> regions;  // rank 0 compute regions, in order
  runtime::TransferStats transfers;          // rank 0
  std::vector<runtime::StreamSpan> compute, h2d, d2h;  // rank 0's span ledgers
};

Executed run_block(const nn::ModelConfig& cfg, int world, const core::FpdtConfig& fcfg,
                   std::int64_t s_global) {
  Rng wrng(1);
  nn::TransformerBlock block("b", cfg, wrng);
  Rng xrng(2);
  const Tensor x = Tensor::randn({s_global, cfg.d_model}, xrng);
  const Tensor dz = Tensor::randn({s_global, cfg.d_model}, xrng);
  core::FpdtEnv env(world, fcfg);
  core::FpdtBlockExecutor exec(block, 0, env);
  data::RankOrdinalSharder sh(world, fcfg.chunks_per_rank);
  exec.forward(sh.shard_tensor(x));
  exec.backward(sh.shard_tensor(dz), sh.shard_tensor(x));
  env.synchronize_streams();
  Executed out;
  // Collectives are priced on the compute stream too; regions are the rest.
  for (const runtime::StreamSpan& sp : env.device(0).compute_stream().spans()) {
    if (sp.label.rfind("a2a ", 0) != 0) out.regions.push_back(sp);
  }
  out.transfers = env.device(0).transfers();
  out.compute = env.device(0).compute_stream().spans();
  out.h2d = env.device(0).h2d_stream().spans();
  out.d2h = env.device(0).d2h_stream().spans();
  return out;
}

// The forward's op list followed by the backward's — one layer's step.
std::vector<ScheduleOp> step_ops(const core::FpdtConfig& c) {
  const std::int64_t u = c.chunks_per_rank;
  std::vector<ScheduleOp> ops =
      ChunkSchedule::forward(u, c.offload, c.double_buffer, c.cache_forward_outputs).ops();
  std::vector<ScheduleOp> bwd =
      ChunkSchedule::backward(u, c.offload, c.double_buffer, !c.cache_forward_outputs).ops();
  for (ScheduleOp& op : bwd) {
    for (std::size_t& d : op.deps) d += ops.size();
  }
  ops.insert(ops.end(), bwd.begin(), bwd.end());
  return ops;
}

// Rank 0's executed [start, finish] of every op, taken in stream order:
// compute regions and collectives (one priced span per buffer) from the
// compute stream, fetches and offloads (one span per buffer) from theirs;
// every executed span belongs to one op.
std::vector<std::pair<double, double>> executed_intervals(const std::vector<ScheduleOp>& ops,
                                                          const Executed& ex) {
  std::map<int, std::pair<const std::vector<runtime::StreamSpan>*, std::size_t>> ledger = {
      {core::kStreamCompute, {&ex.compute, 0}},
      {core::kStreamH2D, {&ex.h2d, 0}},
      {core::kStreamD2H, {&ex.d2h, 0}}};
  std::vector<std::pair<double, double>> out;
  for (const ScheduleOp& op : ops) {
    auto& [spans, at] =
        ledger[op.stream == core::kStreamComm ? core::kStreamCompute : op.stream];
    const std::size_t n = op.stream == core::kStreamCompute ? 1 : op.bufs.size();
    if (at + n > spans->size()) {
      ADD_FAILURE() << "no executed span for " << op.debug();
      return out;
    }
    const std::string& first = (*spans)[at].label;
    const std::string prefix = op.stream == core::kStreamCompute ? op.label()
                               : op.stream == core::kStreamComm  ? "a2a "
                               : op.stream == core::kStreamH2D   ? "fetch."
                                                                 : "offload.";
    EXPECT_EQ(first.substr(0, prefix.size()), prefix) << op.debug();
    out.emplace_back((*spans)[at].start, (*spans)[at + n - 1].finish);
    at += n;
  }
  for (const auto& [stream, ledger_at] : ledger) {
    EXPECT_EQ(ledger_at.second, ledger_at.first->size()) << "unmatched spans on stream " << stream;
  }
  return out;
}

std::int64_t stream_bytes(const std::vector<ScheduleOp>& ops, int stream,
                          const core::ChunkGeometry& g) {
  std::int64_t total = 0;
  for (const ScheduleOp& op : ops) {
    if (op.stream == stream) total += op.bytes(g);
  }
  return total;
}

bool is_attention(const ScheduleOp& op) {
  return op.kind == OpKind::kAttnStep || op.kind == OpKind::kAttnBwdStep;
}

using Case = std::tuple<bool /*llama*/, int /*world*/, int /*u*/, bool /*offload*/,
                        bool /*double_buffer*/, bool /*cache_forward_outputs*/>;

class ScheduleAgreement : public ::testing::TestWithParam<Case> {};

TEST_P(ScheduleAgreement, ExecutorRunsTheScheduleTheSimulatorPrices) {
  const auto [llama, world, u, offload, dbuf, cache] = GetParam();
  const nn::ModelConfig cfg = llama ? nn::tiny_llama(64, 1, 8, 4) : nn::tiny_gpt(32, 1, 4, 64);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = u;
  fcfg.offload = offload;
  fcfg.double_buffer = dbuf;
  fcfg.cache_forward_outputs = cache;
  const std::int64_t s_local = 4 * u;
  const Executed ex = run_block(cfg, world, fcfg, world * s_local);

  const std::vector<ScheduleOp> ops = step_ops(fcfg);
  const core::ChunkGeometry g = sim::chunk_geometry(cfg, world, s_local, u);
  std::vector<const ScheduleOp*> compute;
  for (const ScheduleOp& op : ops) {
    if (op.stream == core::kStreamCompute) compute.push_back(&op);
  }
  ASSERT_EQ(ex.regions.size(), compute.size());
  for (std::size_t k = 0; k < compute.size(); ++k) {
    const ScheduleOp& op = *compute[k];
    ASSERT_EQ(ex.regions[k].label, op.label()) << "compute op #" << k;
    if (is_attention(op)) {
      EXPECT_EQ(ex.regions[k].flops, sim::op_flops(cfg, g, op)) << op.label();
    }
  }
  EXPECT_EQ(ex.transfers.h2d_bytes, stream_bytes(ops, core::kStreamH2D, g));
  EXPECT_EQ(ex.transfers.d2h_bytes, stream_bytes(ops, core::kStreamD2H, g));
  if (!offload) {
    EXPECT_EQ(ex.transfers.h2d_bytes + ex.transfers.d2h_bytes, 0);
  }
}

TEST_P(ScheduleAgreement, ExecutedOpsStartAfterTheirDependencies) {
  const auto [llama, world, u, offload, dbuf, cache] = GetParam();
  const nn::ModelConfig cfg = llama ? nn::tiny_llama(64, 1, 8, 4) : nn::tiny_gpt(32, 1, 4, 64);
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = u;
  fcfg.offload = offload;
  fcfg.double_buffer = dbuf;
  fcfg.cache_forward_outputs = cache;
  const Executed ex = run_block(cfg, world, fcfg, world * 4 * u);
  const std::vector<ScheduleOp> ops = step_ops(fcfg);
  const std::vector<std::pair<double, double>> at = executed_intervals(ops, ex);
  ASSERT_EQ(at.size(), ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    for (std::size_t d : ops[k].deps) {
      EXPECT_GE(at[k].first, at[d].second)
          << ops[k].debug() << " starts before its dependency " << ops[d].debug() << " ends";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleAgreement,
                         ::testing::Combine(::testing::Bool(), ::testing::Values(2, 4),
                                            ::testing::Values(1, 2, 4), ::testing::Bool(),
                                            ::testing::Bool(), ::testing::Bool()));

TEST(ScheduleAgreementTest, GemmPricedRegionsLeaveOutOnlyElementwiseWork) {
  // The simulator prices non-attention regions as their GEMMs; the executed
  // span also charges norm, RoPE, activation and bias kernels. Per op kind
  // the priced FLOPs stay below the executed ones, and the gap is printed.
  for (const bool llama : {false, true}) {
    const nn::ModelConfig cfg =
        llama ? nn::tiny_llama(64, 1, 8, 4) : nn::tiny_gpt(32, 1, 4, 64);
    core::FpdtConfig fcfg;
    fcfg.chunks_per_rank = 2;
    const int world = 2;
    const std::int64_t s_local = 8;
    const Executed ex = run_block(cfg, world, fcfg, world * s_local);
    const std::vector<ScheduleOp> ops = step_ops(fcfg);
    const core::ChunkGeometry g = sim::chunk_geometry(cfg, world, s_local, 2);
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_kind;  // priced, executed
    std::size_t k = 0;
    for (const ScheduleOp& op : ops) {
      if (op.stream != core::kStreamCompute) continue;
      ASSERT_LT(k, ex.regions.size());
      const std::string label = op.label();  // "<kind>.<i>[.<j>]"
      auto& [priced, executed] = by_kind[label.substr(0, label.find_first_of("0123456789") - 1)];
      priced += sim::op_flops(cfg, g, op);
      executed += ex.regions[k++].flops;
    }
    for (const auto& [kind, fl] : by_kind) {
      EXPECT_LE(fl.first, fl.second) << kind;
      std::printf("%s %-14s priced %10lld executed %10lld gap %+.2f%%\n", cfg.name.c_str(),
                  kind.c_str(), static_cast<long long>(fl.first),
                  static_cast<long long>(fl.second),
                  100.0 * static_cast<double>(fl.second - fl.first) /
                      static_cast<double>(fl.second));
    }
  }
}

}  // namespace
}  // namespace fpdt
