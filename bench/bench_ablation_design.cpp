// Design-choice ablations beyond the paper's headline tables — each
// corresponds to a decision DESIGN.md calls out:
//
//  A. Double buffering: prefetch window 2 vs strict single buffer, across
//     chunk sizes (the mechanism of Fig. 7).
//  B. Host-fetch strategy (per-GPU DMA vs one-GPU+scatter), folded into the
//     end-to-end layer time (the §4.2 choice).
//  C. Rank-ordinal vs naive contiguous layout: what the Fig. 6 shuffle
//     saves — with the naive layout each gathered chunk is non-contiguous,
//     so the diagonal causal mask is wrong and a correct implementation
//     must fall back to per-pair masked attention with (2·r+1)/(2·u)
//     average useful work instead of the contiguous schedule's balance.
//  D. MsT comparison (§2.2): chunking only the MLP/loss leaves the
//     attention spike, capping max length far below FPDT.
//  E. Gradient-reduce spike (§6): how the PyTorch reducer's FP32 buckets
//     erode max sequence length — the paper's own "future work" bottleneck.
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "kernels/op_cost.h"
#include "nn/model_config.h"
#include "perfmodel/evaluate.h"
#include "sim/timeline.h"

using namespace fpdt;
using perfmodel::Strategy;

int main() {
  const sim::HardwareSpec hw = sim::a100_80g_node();
  const nn::ModelConfig cfg = nn::llama_8b();
  const int world = 4;

  // ---- A. Double buffering across chunk sizes.
  {
    std::cout << "A. Double buffering vs strict single buffer (Llama-8B, 4 GPUs, 512K seq)\n";
    TextTable t({"chunk", "strict_layer", "double_buffer_layer", "speedup"});
    const sim::CostModel cm(hw, world);
    const std::int64_t s_local = 512 * 1024 / world;
    for (std::int64_t chunk = 8 * 1024; chunk <= 128 * 1024; chunk *= 2) {
      const std::int64_t u = 512 * 1024 / chunk;
      const sim::LayerTiming strict =
          sim::fpdt_layer_timing(cfg, cm, s_local, u, true, false);
      const sim::LayerTiming dbuf = sim::fpdt_layer_timing(cfg, cm, s_local, u, true, true);
      t.add_row({format_token_count(chunk), format_seconds(strict.total()),
                 format_seconds(dbuf.total()), cell_f2(strict.total() / dbuf.total()) + "x"});
    }
    t.print(std::cout);
    t.write_csv("ablation_double_buffer.csv");
  }

  // ---- B. Fetch strategies inside the pipeline.
  {
    std::cout << "\nB. Host-fetch strategy latency at the 64K sweet spot\n";
    const sim::CostModel cm(hw, world);
    const std::int64_t kv_bytes = 2 * 64 * 1024 * cfg.n_kv_head / world *
                                  cfg.head_dim() * 2;
    TextTable t({"strategy", "latency", "vs attention fwd"});
    const std::int64_t h_local = cfg.n_head / world;
    const std::int64_t kv_local = cfg.n_kv_head / world;
    const kernels::AttnDims diag{64 * 1024, 64 * 1024, h_local, kv_local, cfg.head_dim(),
                                 h_local / kv_local};
    const double attn =
        cm.attn_time(static_cast<double>(kernels::online_attn_step_cost(diag, true, 0, 0).flops));
    const struct {
      const char* name;
      sim::FetchStrategy st;
    } rows[] = {
        {"per-GPU DMA (paper's choice)", sim::FetchStrategy::kPerGpu},
        {"one GPU + scatter", sim::FetchStrategy::kOneGpuScatter},
        {"uncontended bound", sim::FetchStrategy::kPerGpuExclusive},
    };
    for (const auto& row : rows) {
      const double ft = cm.fetch_time(kv_bytes, row.st);
      t.add_row({row.name, format_seconds(ft), cell_f2(ft / attn)});
    }
    t.print(std::cout);
    std::cout << "(all << 1x attention: any strategy hides at 64K — the paper picks per-GPU\n"
                 " DMA to avoid the scatter's synchronisation)\n";
  }

  // ---- C. Rank-ordinal layout value.
  {
    std::cout << "\nC. Rank-ordinal (Fig. 6) vs naive contiguous placement\n";
    TextTable t({"chunks/rank", "useful-work balance (ordinal)", "naive layout"});
    for (std::int64_t u : {2, 4, 8}) {
      // With the ordinal layout every rank computes the same causal pair
      // count per gathered chunk (perfect balance, by construction). With
      // the naive layout, gathered chunk i mixes chunk indices {i, i+u,
      // i+2u, ...}; the per-rank causal work of the gathered sequence is
      // unbalanced across ranks by up to the full inter-chunk span.
      const double balanced = 1.0;
      // Naive: rank r's tokens sit at global chunk r*u + i; the last rank
      // always attends ~u/(u+1) more history than the first.
      const double naive_skew = static_cast<double>(2 * u) / (u + 1);
      t.add_row({std::to_string(u), cell_f2(balanced) + "x", cell_f2(naive_skew) + "x skew"});
    }
    t.print(std::cout);
    std::cout << "(and the naive gather breaks the diagonal causal mask outright —\n"
                 " RankOrdinalTest.GatheredChunksAreContiguous tests the fix)\n";
  }

  // ---- D. MsT comparison.
  {
    std::cout << "\nD. MsT (chunked MLP+loss, unchunked attention) vs FPDT — GPT-6.7B, 4 GPUs\n";
    const nn::ModelConfig mha = nn::gpt_6p7b();  // MHA: the attention spike bites
    TextTable t({"strategy", "max_len", "hbm@max", "mfu@max"});
    for (const Strategy& st : {Strategy::ulysses(3, true, true), Strategy::mst(),
                               Strategy::fpdt()}) {
      const std::int64_t max_len = perfmodel::max_sequence(mha, st, world, hw);
      if (max_len == 0) {
        t.add_row({st.label(), "OOM", "-", "-"});
        continue;
      }
      const perfmodel::Evaluation ev = perfmodel::evaluate(mha, st, world, max_len, hw);
      t.add_row({st.label(), format_token_count(max_len),
                 format_bytes(ev.memory.device_total()), cell_pct(ev.mfu)});
    }
    t.print(std::cout);
    t.write_csv("ablation_mst.csv");
    std::cout << "(MsT buys a little over Ulysses by flattening the MLP/loss spikes; the\n"
                 " attention working set it leaves behind is exactly what FPDT removes)\n";
  }

  // ---- E. Gradient-reduce spike (§6).
  {
    std::cout << "\nE. PyTorch gradient-reduce FP32 bucket spike (the paper's §6 bottleneck)\n";
    const nn::ModelConfig big = nn::gpt_13b();
    TextTable t({"bucket (layers)", "spike", "fpdt max_len (13B, 8 GPUs)"});
    for (std::int64_t bucket : {0, 8, 16, 32}) {
      Strategy st = Strategy::fpdt();
      st.grad_reduce_bucket_layers = bucket;
      const std::int64_t spike = bucket * big.param_count() / big.n_layer * 4;
      const std::int64_t max_len = perfmodel::max_sequence(big, st, 8, hw);
      t.add_row({std::to_string(bucket), format_bytes(spike),
                 max_len == 0 ? "OOM" : format_token_count(max_len)});
    }
    t.print(std::cout);
    t.write_csv("ablation_grad_spike.csv");
    std::cout << "(a 32-layer bucket costs "
              << format_bytes(32 * nn::gpt_13b().param_count() / nn::gpt_13b().n_layer * 4)
              << " — \"more significant than the activation's memory spikes\", as §6 warns)\n";
  }
  // ---- F. PCIe-bandwidth sensitivity of the chunk sweet spot.
  {
    std::cout << "\nF. PCIe bandwidth sensitivity (Llama-8B, 4 GPUs, 512K seq)\n";
    TextTable t({"pcie_bw", "best_chunk", "mfu@best", "mfu@64K"});
    for (double gbps : {8.0, 16.0, 32.0, 64.0}) {
      sim::HardwareSpec hw2 = sim::a100_80g_node();
      hw2.pcie_bw = gbps * 1e9;
      const sim::CostModel cm(hw2, world);
      const std::int64_t s_local = 512 * 1024 / world;
      double best_mfu = 0.0, mfu64 = 0.0;
      std::int64_t best_chunk = 0;
      for (std::int64_t chunk = 8 * 1024; chunk <= 256 * 1024; chunk *= 2) {
        const std::int64_t u = 512 * 1024 / chunk;
        const sim::LayerTiming lt = sim::fpdt_layer_timing(cfg, cm, s_local, u, true, true);
        const sim::StepEstimate est = sim::step_estimate(cfg, cm, 512 * 1024, lt, true);
        if (est.mfu > best_mfu) {
          best_mfu = est.mfu;
          best_chunk = chunk;
        }
        if (chunk == 64 * 1024) mfu64 = est.mfu;
      }
      t.add_row({cell_f1(gbps) + " GB/s", format_token_count(best_chunk), cell_pct(best_mfu),
                 cell_pct(mfu64)});
    }
    t.print(std::cout);
    t.write_csv("ablation_pcie.csv");
    std::cout << "(slower PCIe pushes the sweet spot toward larger chunks — the Fig. 8\n"
                 " starving regime widens; faster links make chunk size nearly free)\n";
  }
  return 0;
}
