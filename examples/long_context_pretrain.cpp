// Long-context pretraining demo: the scenario the paper's introduction
// motivates — push the context length far beyond what an unchunked run
// could hold, on a *memory-capped* emulated device, and show that
// (a) the Ulysses-style monolithic executor OOMs while FPDT trains, and
// (b) FPDT's loss still falls (it computes exactly the same gradients).
//
//   ./examples/long_context_pretrain [seq_len] [steps]
//   defaults: 2048 tokens, 8 steps (CPU-friendly tiny model)
#include <iostream>

#include "common/units.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "parallel/zero/zero_config.h"

int main(int argc, char** argv) {
  using namespace fpdt;
  const std::int64_t seq_len = argc > 1 ? std::atoll(argv[1]) : 2048;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 8;
  const int world = 4;

  const nn::ModelConfig cfg = nn::tiny_gpt(64, 2, 4, 96);
  data::SyntheticCorpus corpus(cfg.vocab, 11);

  // A deliberately tight HBM budget: on top of the replicated (ZeRO stage 0)
  // model state every trainer charges, the full-sequence working set of the
  // monolithic (Ulysses, 1-chunk) executor does not fit, the chunked one
  // does. Scaled-down version of the paper's Fig. 11 OOM walls.
  nn::Model model(cfg, 99);  // trained by FPDT in attempt 2
  std::int64_t n_params = 0;
  model.visit_params([&](nn::Param& p) { n_params += p.value.numel(); });
  const std::int64_t model_state = n_params * zero::kModelStateBytesPerElem;
  const std::int64_t hbm_cap = model_state + seq_len * cfg.d_model * 2 * 3;

  std::cout << "sequence " << format_token_count(seq_len) << ", HBM cap/GPU "
            << format_bytes(hbm_cap) << " (model state " << format_bytes(model_state) << ")\n\n";

  // ---- Attempt 1: no chunking (Ulysses-style execution).
  {
    nn::Model mono_model(cfg, 99);
    core::FpdtConfig mono;
    mono.chunks_per_rank = 1;
    mono.offload = false;
    mono.cache_forward_outputs = false;
    core::FpdtTrainer trainer(mono_model, world, mono, hbm_cap);
    try {
      trainer.train_step_grads(corpus.sample(seq_len + 1));
      std::cout << "[unexpected] monolithic execution fit in the cap\n";
    } catch (const OutOfMemoryError& e) {
      std::cout << "monolithic (no chunking): OOM as expected -> " << e.what() << "\n\n";
    }
  }

  // ---- Attempt 2: FPDT — 8 chunks per rank, offloaded, double-buffered.
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = 8;
  fcfg.offload = true;
  core::FpdtTrainer trainer(model, world, fcfg, hbm_cap);
  nn::Adam opt(2e-3);
  std::cout << "FPDT (8 chunks/rank, offload): training...\n";
  double first = 0.0, last = 0.0;
  for (int step = 1; step <= steps; ++step) {
    const double loss = trainer.train_step_grads(corpus.sample(seq_len + 1));
    opt.step([&](const nn::ParamVisitor& fn) { model.visit_params(fn); });
    if (step == 1) first = loss;
    last = loss;
    std::printf("  step %2d  loss %.4f  hbm_peak %s  host %s\n", step, loss,
                format_bytes(trainer.env().device(0).hbm().peak()).c_str(),
                format_bytes(trainer.env().host().pool().peak()).c_str());
  }
  std::cout << "\nloss " << first << " -> " << last
            << " under the same HBM cap that OOMed the monolithic run.\n";
  return last < first ? 0 : 1;
}
