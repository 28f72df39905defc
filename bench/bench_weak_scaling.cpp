// Weak-scaling study (extension): hold the per-GPU context fixed and grow
// the cluster 4 -> 32 GPUs. Ulysses' All2All volume per GPU is constant
// (its design point) but crosses onto InfiniBand past one node; Megatron-SP
// moves the full gathered activation; FPDT overlaps everything. The paper
// asserts these properties qualitatively (§2.2, §5.2) — this bench makes
// them a table.
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "nn/model_config.h"
#include "perfmodel/evaluate.h"

using namespace fpdt;
using perfmodel::Strategy;

int main() {
  const sim::HardwareSpec hw = sim::a100_80g_node();
  const nn::ModelConfig cfg = nn::llama_8b();
  const std::int64_t ctx_per_gpu = 32 * 1024;

  TextTable table({"gpus", "nodes", "seq_global", "megatron-sp", "ulysses", "fpdt"});
  for (int world : {4, 8, 16, 32}) {
    const std::int64_t s_global = ctx_per_gpu * world;
    std::vector<std::string> row = {std::to_string(world),
                                    std::to_string(std::max(1, world / hw.gpus_per_node)),
                                    format_token_count(s_global)};
    for (const Strategy& st :
         {Strategy::megatron_sp(), Strategy::ulysses(3, true, true), Strategy::fpdt()}) {
      if (!perfmodel::fits(cfg, st, world, s_global, hw)) {
        Strategy fb = st;
        fb.fpdt_cache_fwd = false;
        if (st.scheme != perfmodel::SeqScheme::kFpdt ||
            !perfmodel::fits(cfg, fb, world, s_global, hw)) {
          row.push_back("OOM");
          continue;
        }
      }
      const perfmodel::Evaluation ev = perfmodel::evaluate(cfg, st, world, s_global, hw);
      row.push_back(cell_pct(ev.mfu));
    }
    table.add_row(std::move(row));
  }
  std::cout << "Weak scaling — Llama-8B, " << format_token_count(ctx_per_gpu)
            << " context per GPU, growing the cluster\n";
  table.print(std::cout);
  table.write_csv("weak_scaling_strategies.csv");
  std::cout << "\nShape: the global sequence grows with the cluster, so attention work per\n"
               "GPU grows linearly — MFU *rises* for the overlap-friendly strategies while\n"
               "Megatron-SP pays the cross-node gathered-activation traffic.\n";
  return 0;
}
