// Pipeline trace: visualise the simulated FPDT chunk schedule — the
// double-buffered, multi-stream execution of Figs. 5 and 7 — and its
// per-engine utilisation, for any model/chunk configuration.
//
//   ./examples/pipeline_trace llama-8b 4 64K
//   (args: model gpus chunk-size; defaults: llama-8b 4 64K)
#include <iostream>
#include <string>

#include "common/units.h"
#include "nn/model_config.h"
#include "sim/cost_model.h"
#include "sim/pipeline_sim.h"
#include "sim/timeline.h"

int main(int argc, char** argv) {
  using namespace fpdt;
  const std::string model_name = argc > 1 ? argv[1] : "llama-8b";
  const int world = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::int64_t chunk = argc > 3 ? parse_token_count(argv[3]) : 64 * 1024;

  const nn::ModelConfig cfg = nn::model_by_name(model_name);
  const sim::CostModel cm(sim::a100_80g_node(), world);
  const std::int64_t s_global = 4 * chunk;  // 4 chunks for a readable trace
  const std::int64_t s_local = s_global / world;
  const std::int64_t u = s_global / chunk;

  std::cout << "FPDT pipeline: " << cfg.name << ", " << world << " GPUs, "
            << format_token_count(s_global) << " sequence, " << u << " chunks of "
            << format_token_count(chunk) << "\n\n";

  for (const bool dbuf : {false, true}) {
    const sim::LayerTiming t =
        sim::fpdt_layer_timing(cfg, cm, s_local, u, /*offload=*/true, dbuf);
    std::cout << (dbuf ? "double buffer" : "single buffer ") << ": fwd "
              << format_seconds(t.forward_s) << ", bwd " << format_seconds(t.backward_s)
              << "  | busy  comp " << format_seconds(t.compute_busy_s) << "  h2d "
              << format_seconds(t.h2d_busy_s) << "  d2h " << format_seconds(t.d2h_busy_s)
              << "  comm " << format_seconds(t.comm_busy_s) << "\n";
  }

  const sim::LayerTiming ul = sim::ulysses_layer_timing(cfg, cm, s_local);
  std::cout << "ulysses (1 chunk): fwd " << format_seconds(ul.forward_s) << ", bwd "
            << format_seconds(ul.backward_s) << "\n\n";

  // Raw task-level trace of the forward chunk pipeline.
  std::cout << "Forward task trace (per-chunk: proj -> All2All -> online attention over\n"
               "cached KV chunks -> All2All back -> out-proj+FFN; offloads on the D2H\n"
               "stream, prefetches on H2D):\n\n";
  std::cout << sim::build_fpdt_forward_sim(cfg, cm, s_local, u, /*offload=*/true,
                                           /*double_buffer=*/true)
                   .trace(48);
  return 0;
}
