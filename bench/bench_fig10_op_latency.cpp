// Reproduces Figure 10: average time spent in All2All, attention forward,
// attention backward, and three host-to-device fetching strategies, as the
// sequence-chunk size sweeps 8K..512K tokens. The paper's takeaways, which
// must hold here: All2All (NVLink) is far below everything else; attention
// compute overtakes every fetch strategy at ~32-64K tokens; beyond that the
// fetch strategies' differences are negligible.
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "kernels/op_cost.h"
#include "nn/model_config.h"
#include "sim/cost_model.h"

using namespace fpdt;
using sim::CostModel;
using sim::FetchStrategy;

int main() {
  const nn::ModelConfig cfg = nn::llama_8b();
  const int world = 4;
  const CostModel cm(sim::a100_80g_node(), world);
  const std::int64_t h_local = cfg.n_head / world;
  const std::int64_t kv_local = cfg.n_kv_head / world;
  const std::int64_t dh = cfg.head_dim();

  TextTable table({"chunk", "all2all", "attn_fwd", "attn_bwd", "fetch_multi_gpu",
                   "fetch_1gpu_scatter", "fetch_exclusive"});
  std::int64_t crossover = 0;
  for (std::int64_t chunk = 8 * 1024; chunk <= 512 * 1024; chunk *= 2) {
    // Tensors as in §4.2: All2All on the local [s/p, h, d] slice, attention
    // on the gathered [s, h/p, d] chunk, fetch of [3, s, h/p, d] (q, k, v).
    const std::int64_t a2a_bytes =
        chunk / world * (cfg.d_model + 2 * kv_local * world * dh) * 2;
    const double a2a = cm.all2all_time(a2a_bytes);
    // The diagonal (causal) chunk pair, priced with the kernels' own
    // exact-pair FLOP formulas.
    const kernels::AttnDims dm{chunk, chunk, h_local, kv_local, dh, h_local / kv_local};
    const auto fwd_flops = kernels::online_attn_step_cost(dm, true, 0, 0).flops;
    const auto bwd_flops = kernels::online_attn_backward_step_cost(dm, true, 0, 0).flops;
    const double fwd = cm.attn_time(static_cast<double>(fwd_flops));
    const double bwd = cm.attn_time(static_cast<double>(bwd_flops));
    const std::int64_t fetch_bytes = 3 * chunk * h_local * dh * 2;
    const double f_multi = cm.fetch_time(fetch_bytes, FetchStrategy::kPerGpu);
    const double f_scatter = cm.fetch_time(fetch_bytes, FetchStrategy::kOneGpuScatter);
    const double f_excl = cm.fetch_time(fetch_bytes, FetchStrategy::kPerGpuExclusive);
    if (crossover == 0 && fwd > f_multi) crossover = chunk;
    table.add_row({format_token_count(chunk), format_seconds(a2a), format_seconds(fwd),
                   format_seconds(bwd), format_seconds(f_multi), format_seconds(f_scatter),
                   format_seconds(f_excl)});
  }
  std::cout << "Figure 10 — op latency vs chunk size (Llama-8B geometry, 4 GPUs)\n";
  table.print(std::cout);
  table.write_csv("fig10_op_latency.csv");
  std::cout << "\nAttention forward overtakes the multi-GPU fetch at "
            << format_token_count(crossover) << " (paper: ~32K-64K).\n";
  return 0;
}
