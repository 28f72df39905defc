// fpdt — command-line front end to the capacity/memory/timing models.
//
//   fpdt plan <model> <gpus> [hbm_gib]          strategy comparison + pick
//   fpdt maxlen <model> <strategy> <gpus>       max trainable context
//   fpdt memory <model> <strategy> <gpus> <seq> per-GPU memory breakdown
//   fpdt simulate <model> <gpus> <seq> [chunk]  step time / MFU / engine busy
//   fpdt trace <model> <gpus> <chunk> <out.json> chrome://tracing pipeline dump
//   fpdt overlap [gpus] [chunks] [chunk_tokens] [--trace out.json]
//                                               measured stream-overlap report
//   fpdt profile [--steps N] [--gpus G] [--strategy S] [--trace t.json]
//                [--metrics m.json]             executed-step profiler
//   fpdt chaos [--spec S] [--steps N] [--gpus G]  fault-injected resilience run
//   fpdt elastic [--scenario S] [--steps N]       scripted churn + bitwise twin
//   fpdt footprint [--gpus G] [--stage all|0..3]  measured vs modeled ZeRO bytes
//   fpdt tune [--budget BYTES] [--top-k K]        cost-model-guided autotuner
//             [--sweep chunk]                     (or: regenerate Fig. 12 curve)
//   fpdt topo [--ranks 64..1024] [--hw PRESET]    weak-scaling flat-vs-hier model,
//             [--verify] [--grid-check]           bitwise differential checks
//   fpdt serve [--sessions N] [--seed S] ...      multi-tenant serving engine
//                                                 (chunked prefill + paged KV)
//
// Strategies: tp, tp-ac, tp-ac-oc, megatron-sp, ulysses, mst, fpdt-chunk, fpdt
// Models: gpt-2.7b gpt-6.7b gpt-13b gpt-30b llama-8b llama-70b
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_args.h"
#include "comm/hierarchical_group.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "fault/fault_injector.h"
#include "fault/elastic.h"
#include "fault/resilient_trainer.h"
#include "kernels/backend.h"
#include "nn/model_config.h"
#include "obs/bench.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "parallel/grid2d.h"
#include "parallel/zero/sharded_optimizer.h"
#include "parallel/zero/zero_engine.h"
#include "perfmodel/evaluate.h"
#include "serve/engine.h"
#include "sim/runtime_bridge.h"
#include "sim/timeline.h"
#include "topo/topo_model.h"
#include "topo/topology.h"
#include "tune/sweep.h"
#include "tune/tuner.h"

namespace {

using namespace fpdt;
using perfmodel::Strategy;

Strategy strategy_by_name(const std::string& name) {
  if (name == "tp") return Strategy::megatron_tp(false, false);
  if (name == "tp-ac") return Strategy::megatron_tp(true, false);
  if (name == "tp-ac-oc") return Strategy::megatron_tp(true, true);
  if (name == "megatron-sp") return Strategy::megatron_sp();
  if (name == "ulysses") return Strategy::ulysses(3, true, true);
  if (name == "mst") return Strategy::mst();
  if (name == "fpdt-chunk") return Strategy::fpdt_chunking_only();
  if (name == "fpdt") return Strategy::fpdt();
  throw FpdtError("unknown strategy: " + name +
                  " (try tp, tp-ac, tp-ac-oc, megatron-sp, ulysses, mst, fpdt-chunk, fpdt)");
}

int usage() {
  std::cerr << "usage:\n"
               "  fpdt plan <model> <gpus> [hbm_gib=80]\n"
               "  fpdt maxlen <model> <strategy> <gpus> [hbm_gib=80]\n"
               "  fpdt memory <model> <strategy> <gpus> <seq>\n"
               "  fpdt simulate <model> <gpus> <seq> [chunk=64K]\n"
               "  fpdt trace <model> <gpus> <chunk> <out.json>\n"
               "  fpdt overlap [gpus=2] [chunks=4] [chunk_tokens=64] [--trace out.json]\n"
               "  fpdt profile [--steps 2] [--gpus 2] [--chunks 4] [--chunk-tokens 64]\n"
               "               [--strategy fpdt|ulysses|megatron-sp|ring] [--model tiny-gpt]\n"
               "               [--zero-stage -1..3] [--backend scalar|simd]\n"
               "               [--hw a100-nvlink|a100-40g|pcie-host]\n"
               "               [--ranks-per-node R] [--head-degree H]\n"
               "               [--trace trace.json] [--metrics metrics.json] [--no-trace]\n"
               "  fpdt kernels                                list math-kernel backends\n"
               "  fpdt chaos [--spec 'h2d:p=0.05;collective:step=2'] [--steps 4] [--gpus 2]\n"
               "             [--chunks 4] [--chunk-tokens 64] [--seed 1234]\n"
               "             [--ckpt fpdt_chaos.ckpt] [--no-verify] [--zero-stage 0..3]\n"
               "  fpdt elastic [--scenario 'ranklost:step=1,rank=1;rejoin:step=3'] [--steps 6]\n"
               "               [--gpus 4] [--chunks 2] [--chunk-tokens 32] [--seed 1234]\n"
               "               [--ckpt fpdt_elastic.ckpt] [--no-verify] [--zero-stage 0..3]\n"
               "               [--ranks-per-node R] [--head-degree H]\n"
               "               [--keep-ckpt]      rank churn drill; twin must match bitwise\n"
               "  fpdt footprint [--gpus 2] [--chunks 4] [--chunk-tokens 64]\n"
               "                 [--stage all|0|1|2|3]\n"
               "  fpdt tune [--model tiny-gpt] [--gpus 2] [--seq 512] [--budget 1450K]\n"
               "            [--top-k 6] [--steps 1] [--seed 1234] [--cache tune.cache]\n"
               "            [--json tune.json] [--max-chunks 8] [--backend scalar|simd]\n"
               "            [--hw a100-nvlink|a100-40g|pcie-host] [--grid]\n"
               "  fpdt tune --sweep chunk [--csv fig12_chunk_tradeoff.csv]\n"
               "  fpdt topo [--ranks 64..1024] [--hw a100-nvlink|a100-40g|pcie-host]\n"
               "            [--model gpt-6.7b] [--ctx-per-gpu 32K] [--chunks 4]\n"
               "            [--csv weak_scaling.csv] [--check]    weak-scaling sweep + gate\n"
               "  fpdt topo --verify                 flat-vs-hierarchical bitwise differential\n"
               "  fpdt topo --grid-check             2D-vs-1D loss bit-identity, both backends\n"
               "  fpdt bench [--out-dir DIR] [--steps 2] [--seed 1234] [--active-backend-only]\n"
               "             [--json]                     canonical perf-snapshot suite\n"
               "  fpdt serve [--sessions 64] [--seed 1234] [--min-len 2K] [--max-len 256K]\n"
               "             [--decode-min 4] [--decode-max 32] [--page-tokens 1K]\n"
               "             [--chunk-tokens 4K] [--max-active 4] [--gpus 1] [--hbm 256M]\n"
               "             [--model tiny-gpt] [--backend scalar|simd] [--faults SPEC]\n"
               "             [--execute] [--verify] [--print-transcript]\n"
               "             [--metrics m.json]           multi-tenant serving engine\n";
  return 2;
}

sim::HardwareSpec hardware(int hbm_gib) {
  return hbm_gib <= 40 ? sim::a100_40g_node() : sim::a100_80g_node();
}

int cmd_plan(const std::string& model, int gpus, int hbm_gib) {
  const nn::ModelConfig cfg = nn::model_by_name(model);
  const sim::HardwareSpec hw = hardware(hbm_gib);
  TextTable t({"strategy", "max_ctx", "hbm", "mfu"});
  for (const char* name :
       {"tp-ac-oc", "megatron-sp", "ulysses", "mst", "fpdt-chunk", "fpdt"}) {
    const Strategy st = strategy_by_name(name);
    const std::int64_t max_len = perfmodel::max_sequence(cfg, st, gpus, hw);
    if (max_len == 0) {
      t.add_row({name, "OOM", "-", "-"});
      continue;
    }
    const perfmodel::Evaluation ev = perfmodel::evaluate(cfg, st, gpus, max_len, hw);
    t.add_row({name, format_token_count(max_len), format_bytes(ev.memory.device_total()),
               cell_pct(ev.mfu)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_maxlen(const std::string& model, const std::string& strat, int gpus, int hbm_gib) {
  const std::int64_t len = perfmodel::max_sequence(
      nn::model_by_name(model), strategy_by_name(strat), gpus, hardware(hbm_gib));
  std::cout << (len == 0 ? "OOM" : format_token_count(len)) << "\n";
  return len == 0 ? 1 : 0;
}

int cmd_memory(const std::string& model, const std::string& strat, int gpus,
               const std::string& seq) {
  const nn::ModelConfig cfg = nn::model_by_name(model);
  const perfmodel::MemoryBreakdown mb = perfmodel::estimate_memory(
      cfg, strategy_by_name(strat), gpus, parse_token_count(seq));
  TextTable t({"component", "per-gpu bytes"});
  t.add_row({"params", format_bytes(mb.params)});
  t.add_row({"grads", format_bytes(mb.grads)});
  t.add_row({"optimizer", format_bytes(mb.optimizer)});
  t.add_row({"zero3 gather", format_bytes(mb.gathered_params)});
  t.add_row({"stored activations", format_bytes(mb.stored_activations)});
  t.add_row({"working set", format_bytes(mb.working_set)});
  t.add_row({"logits spike", format_bytes(mb.logits_spike)});
  t.add_row({"TOTAL (device)", format_bytes(mb.device_total())});
  t.add_row({"host (offloaded)", format_bytes(mb.host_bytes)});
  t.print(std::cout);
  return 0;
}

int cmd_simulate(const std::string& model, int gpus, const std::string& seq,
                 const std::string& chunk) {
  const nn::ModelConfig cfg = nn::model_by_name(model);
  const std::int64_t s_global = parse_token_count(seq);
  Strategy st = strategy_by_name("fpdt");
  st.fpdt_chunk_tokens = parse_token_count(chunk);
  const perfmodel::Evaluation ev =
      perfmodel::evaluate(cfg, st, gpus, s_global, sim::a100_80g_node());
  std::cout << "model " << cfg.name << ", " << gpus << " GPUs, seq "
            << format_token_count(s_global) << ", chunk " << format_token_count(st.fpdt_chunk_tokens)
            << (ev.recompute_fallback ? " (recompute fallback: host-bound)" : "") << "\n"
            << "fits: " << (ev.fits ? "yes" : "NO (would OOM)") << "\n"
            << "step time: " << format_seconds(ev.step_s) << "   MFU: " << cell_pct(ev.mfu)
            << "\n"
            << "per-layer busy  compute " << format_seconds(ev.layer.compute_busy_s) << "  h2d "
            << format_seconds(ev.layer.h2d_busy_s) << "  d2h "
            << format_seconds(ev.layer.d2h_busy_s) << "  comm "
            << format_seconds(ev.layer.comm_busy_s) << "\n";
  return 0;
}

int cmd_trace(const std::string& model, int gpus, const std::string& chunk,
              const std::string& out_path) {
  const nn::ModelConfig cfg = nn::model_by_name(model);
  const std::int64_t c = parse_token_count(chunk);
  const sim::CostModel cm(sim::a100_80g_node(), gpus);
  // 4 chunks of the requested size make a readable pipeline.
  sim::PipelineSim ps =
      sim::build_fpdt_forward_sim(cfg, cm, 4 * c / gpus, 4, true, true);
  std::cerr << ps.trace(32);  // text preview
  std::ofstream out(out_path);
  out << ps.chrome_trace_json();
  FPDT_CHECK(out.good()) << " cannot write " << out_path;
  std::cout << "wrote " << out_path << " (open in chrome://tracing or Perfetto)\n";
  return 0;
}

// Runs an *executed* FPDT training step (tiny GPT, emulated group) with the
// stream engine on, stream rates taken from the A100 cost model, and prints
// the measured transfer timeline next to the simulator's forward-pipeline
// prediction for the same shapes — prediction and measurement on one scale.
int cmd_overlap(int gpus, std::int64_t chunks, std::int64_t chunk_tokens,
                const std::string& trace_path) {
  const nn::ModelConfig cfg = nn::tiny_gpt(64, 2, 4, 96);
  const sim::CostModel cm(sim::a100_80g_node(), gpus);

  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = chunks;
  const std::int64_t s_global = static_cast<std::int64_t>(gpus) * chunks * chunk_tokens;

  nn::Model model(cfg, 1234);
  core::FpdtTrainer trainer(model, gpus, fcfg);
  trainer.env().set_stream_rates(sim::stream_rates(cm));

  if (!trace_path.empty()) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  data::SyntheticCorpus corpus(cfg.vocab, 7);
  const double loss = trainer.train_step_grads(corpus.sample(s_global + 1));

  const runtime::TimelineReport measured = trainer.env().timeline_report(0);
  if (!trace_path.empty()) {
    trainer.env().synchronize_streams();
    obs::Tracer::instance().write_chrome_trace(trace_path);
    obs::Tracer::instance().set_enabled(false);
    std::cout << "wrote trace to " << trace_path << "\n";
  }
  const runtime::TransferStats& tx = trainer.env().device(0).transfers();
  std::cout << "executed FPDT step: " << cfg.name << ", " << gpus << " GPUs, seq "
            << format_token_count(s_global) << " (" << chunks << " chunks x "
            << format_token_count(chunk_tokens) << "/rank), loss " << loss << "\n"
            << "rank-0 traffic: h2d " << format_bytes(tx.h2d_bytes) << " in " << tx.h2d_count
            << " transfers, d2h " << format_bytes(tx.d2h_bytes) << " in " << tx.d2h_count
            << " transfers, hbm peak " << format_bytes(trainer.env().max_hbm_peak()) << "\n"
            << measured.to_string();

  // Simulator prediction covers the forward chunk pipeline only (the
  // measured report spans forward + backward), so compare ratios, not
  // absolute times.
  const runtime::TimelineReport predicted = sim::sim_timeline_report(
      sim::build_fpdt_forward_sim(cfg, cm, s_global / gpus, chunks, fcfg.offload,
                                  fcfg.double_buffer));
  std::cout << "simulated forward pipeline (double_buffer="
            << (fcfg.double_buffer ? "true" : "false") << "):\n"
            << predicted.to_string();
  return 0;
}

int cmd_profile(int argc, char** argv, int base) {
  obs::ProfileOptions opt;
  std::string model, hw_name;
  cli::FlagParser f("profile", argc, argv, base);
  while (f.more()) {
    if (f.match("--steps", &opt.steps)) continue;
    if (f.match("--gpus", &opt.world)) continue;
    if (f.match("--chunks", &opt.cfg.chunks_per_rank)) continue;
    if (f.match("--chunk-tokens", &opt.chunk_tokens)) continue;
    if (f.match("--strategy", &opt.strategy)) continue;
    if (f.match("--model", &model)) continue;
    if (f.match("--seed", &opt.seed)) continue;
    if (f.match("--trace", &opt.trace_path)) continue;
    if (f.match("--metrics", &opt.metrics_path)) continue;
    if (f.match_set("--no-trace", &opt.trace, false)) continue;
    if (f.match("--zero-stage", &opt.cfg.zero_stage)) continue;
    if (f.match("--backend", &opt.cfg.kernel_backend)) continue;
    if (f.match("--hw", &hw_name)) continue;
    if (f.match("--ranks-per-node", &opt.cfg.ranks_per_node)) continue;
    if (f.match("--head-degree", &opt.cfg.head_degree)) continue;
    f.unknown();
  }
  if (!model.empty()) opt.model = nn::model_by_name(model);
  if (!hw_name.empty()) opt.hw = sim::hw_preset(hw_name);

  const obs::ProfileResult res = obs::run_profile(opt);

  std::cout << "profiled " << opt.steps << " " << opt.strategy << " steps, " << opt.world
            << " GPUs, " << format_token_count(res.tokens_per_step) << " tokens/step";
  if (opt.cfg.zero_stage >= 0) std::cout << ", zero-" << opt.cfg.zero_stage;
  std::cout << ", kernels "
            << (opt.cfg.kernel_backend.empty() ? kernels::active_name() : opt.cfg.kernel_backend);
  std::cout << "\n";
  TextTable t({"step", "loss", "virtual", "wall", "tok/s", "mfu", "par_eff", "overlap",
               "exposed", "hbm peak"});
  for (const obs::StepStats& s : res.steps) {
    t.add_row({std::to_string(s.step), cell_f2(s.loss), format_seconds(s.virtual_step_s),
               format_seconds(s.wall_s), cell_f2(s.tokens_per_s), cell_pct(s.mfu),
               cell_pct(s.parallel_efficiency), cell_pct(s.overlap_ratio),
               format_seconds(s.exposed_transfer_s), format_bytes(s.hbm_peak_bytes)});
  }
  t.print(std::cout);
  if (!res.steps.empty() && res.steps.back().inter_link_bytes > 0) {
    const obs::StepStats& last = res.steps.back();
    std::cout << "link traffic (last step): intra " << format_bytes(last.intra_link_bytes)
              << ", inter " << format_bytes(last.inter_link_bytes) << ", inter bw util "
              << cell_pct(last.inter_bw_util) << "\n";
  }
  obs::MetricsRegistry::global().print_table(std::cout);
  if (opt.trace && !opt.trace_path.empty()) {
    std::cout << "wrote trace to " << opt.trace_path << " (open in Perfetto / chrome://tracing)\n";
  }
  if (!opt.metrics_path.empty()) std::cout << "wrote metrics to " << opt.metrics_path << "\n";
  return 0;
}

// Executed ZeRO footprint audit: runs one real training step + optimizer
// update per requested stage on the tiny model and prints each stage's
// *measured* model-state residency (what the ZeroEngine actually charged
// against rank-0's MemoryPool) next to the analytic memory model's
// prediction for the same strategy — the measured-vs-modeled column the
// differential oracle test (tests/test_zero.cpp) enforces in CI. The final
// loss is printed at full precision: every stage must match stage 0 bitwise.
int cmd_footprint(int argc, char** argv, int base) {
  int gpus = 2;
  std::int64_t chunks = 4, chunk_tokens = 64;
  std::string stage_arg = "all";
  cli::FlagParser f("footprint", argc, argv, base);
  while (f.more()) {
    if (f.match("--gpus", &gpus)) continue;
    if (f.match("--chunks", &chunks)) continue;
    if (f.match("--chunk-tokens", &chunk_tokens)) continue;
    if (f.match("--stage", &stage_arg)) continue;
    f.unknown();
  }
  std::vector<int> stages;
  if (stage_arg == "all") stages = {0, 1, 2, 3};
  else stages = {std::atoi(stage_arg.c_str())};

  const nn::ModelConfig cfg = nn::tiny_gpt();
  const std::int64_t s_global = static_cast<std::int64_t>(gpus) * chunks * chunk_tokens;
  std::cout << "executed ZeRO footprint: " << cfg.name << ", " << gpus << " GPUs, seq "
            << format_token_count(s_global) << " (one step + optimizer update per stage)\n";

  TextTable t({"stage", "component", "measured", "modeled", "delta"});
  std::cout.precision(17);
  for (int stage : stages) {
    core::FpdtConfig fcfg;
    fcfg.chunks_per_rank = chunks;
    fcfg.zero_stage = stage;
    nn::Model model(cfg, 1234);
    core::FpdtTrainer trainer(model, gpus, fcfg);
    data::SyntheticCorpus corpus(cfg.vocab, 7);
    const double loss = trainer.train_step_grads(corpus.sample(s_global + 1));
    zero::ShardedOptimizer opt(trainer.env(), zero::ZeroConfig{stage});
    opt.step([&](const nn::ParamVisitor& v) { model.visit_params(v); });
    trainer.env().synchronize_streams();

    const zero::ResidentBytes meas = trainer.zero_engine()->resident(0);
    Strategy st = Strategy::fpdt();
    st.zero_stage = stage;
    st.fpdt_chunk_tokens = chunk_tokens * gpus;  // global chunk
    const perfmodel::MemoryBreakdown mb = perfmodel::estimate_memory(cfg, st, gpus, s_global);
    const auto row = [&](const char* name, std::int64_t m, std::int64_t p) {
      const std::int64_t d = m - p;
      t.add_row({"zero-" + std::to_string(stage), name, format_bytes(m), format_bytes(p),
                 (d >= 0 ? "+" : "-") + format_bytes(std::abs(d))});
    };
    row("params", meas.params, mb.params);
    row("grads", meas.grads, mb.grads);
    row("optimizer", meas.optimizer, mb.optimizer);
    row("TOTAL", meas.total(), mb.params + mb.grads + mb.optimizer);
    std::cout << "zero-" << stage << ": loss " << loss << ", hbm peak "
              << format_bytes(trainer.env().max_hbm_peak()) << ", model-state resident "
              << format_bytes(meas.total()) << "\n";
  }
  t.print(std::cout);
  std::cout << "(modeled = perfmodel::estimate_memory; deltas come from bias parameters the\n"
               " analytic param count omits and per-parameter ceil(n/P) shard padding)\n";
  return 0;
}

// Deterministic fault-injection drill: a faulted run (retry / degrade /
// restore as needed) followed by a fault-free twin, verifying the injector
// was survivable and invisible to training math.
int cmd_chaos(int argc, char** argv, int base) {
  fault::ChaosOptions opt;
  // Default spec: env override, else a canned mix exercising every
  // recovery path short of math degradation.
  if (const char* env = std::getenv("FPDT_FAULTS")) opt.spec = env;
  if (opt.spec.empty()) opt.spec = "h2d:p=0.05;d2h:p=0.05;collective:step=2";
  cli::FlagParser f("chaos", argc, argv, base);
  while (f.more()) {
    if (f.match("--spec", &opt.spec)) continue;
    if (f.match("--steps", &opt.steps)) continue;
    if (f.match("--gpus", &opt.world)) continue;
    if (f.match("--chunks", &opt.cfg.chunks_per_rank)) continue;
    if (f.match("--chunk-tokens", &opt.chunk_tokens)) continue;
    if (f.match("--seed", &opt.seed)) continue;
    if (f.match("--ckpt", &opt.checkpoint_path)) continue;
    if (f.match_set("--no-verify", &opt.verify_against_clean, false)) continue;
    if (f.match("--zero-stage", &opt.cfg.zero_stage)) continue;
    f.unknown();
  }

  fault::FaultInjector::instance().configure(opt.spec);
  std::cout << fault::FaultInjector::instance().describe();
  const fault::ChaosResult res = fault::run_chaos(opt);
  std::cout << res.report(opt.steps);
  if (!res.survived(opt.steps)) return 1;
  if (opt.verify_against_clean && !res.loss_bitwise_match && !res.math_degraded &&
      !res.resharded) {
    return 1;
  }
  return 0;
}

// Scripted rank churn (ranklost / rankslow / netpart / rejoin) with
// coordinated re-sharding, then the bitwise twin: a fresh run at the
// post-reshard world restored from the same snapshot must reproduce every
// replayed loss bit for bit.
int cmd_elastic(int argc, char** argv, int base) {
  fault::ElasticOptions opt;
  opt.scenario = "ranklost:step=1,rank=1";
  cli::FlagParser f("elastic", argc, argv, base);
  while (f.more()) {
    if (f.match("--scenario", &opt.scenario)) continue;
    if (f.match("--steps", &opt.steps)) continue;
    if (f.match("--gpus", &opt.world)) continue;
    if (f.match("--chunks", &opt.cfg.chunks_per_rank)) continue;
    if (f.match("--chunk-tokens", &opt.chunk_tokens)) continue;
    if (f.match("--seed", &opt.seed)) continue;
    if (f.match("--ckpt", &opt.checkpoint_path)) continue;
    if (f.match_set("--no-verify", &opt.verify_twin, false)) continue;
    if (f.match("--zero-stage", &opt.cfg.zero_stage)) continue;
    if (f.match("--ranks-per-node", &opt.cfg.ranks_per_node)) continue;
    if (f.match("--head-degree", &opt.cfg.head_degree)) continue;
    if (f.match_set("--keep-ckpt", &opt.keep_checkpoint, true)) continue;
    f.unknown();
  }

  std::cout << "elastic: scenario '" << opt.scenario << "' world " << opt.world << " zero-stage "
            << opt.cfg.zero_stage;
  if (opt.cfg.ranks_per_node > 0 || opt.cfg.head_degree > 0) {
    std::cout << " grid rpn=" << opt.cfg.ranks_per_node << " hd=" << opt.cfg.head_degree;
  }
  std::cout << "\n";
  const fault::ElasticResult res = fault::run_elastic(opt);
  std::cout << res.report(opt.steps);
  if (!res.survived(opt.steps)) return 1;
  if (opt.verify_twin && !res.twin_bitwise_match) return 1;
  return 0;
}

// Cost-model-guided autotuner: enumerate the FPDT knob grid, prune with the
// analytic memory+latency model, execute the top-K survivors as real
// profiled training steps, and pick the fastest measured config that fits
// the HBM budget. `--sweep chunk` instead regenerates the Fig. 12
// chunk-tradeoff curve from the tuner's analytic pricing and shape-checks it.
int cmd_tune(int argc, char** argv, int base) {
  tune::TuneRequest req;
  std::string model = "tiny-gpt", sweep, json_path, backend, hw_name;
  std::string csv_path = "fig12_chunk_tradeoff.csv";
  std::int64_t max_chunks = 0;
  bool grid = false;
  cli::FlagParser f("tune", argc, argv, base);
  while (f.more()) {
    if (f.match("--model", &model)) continue;
    if (f.match("--hw", &hw_name)) continue;
    if (f.match_set("--grid", &grid)) continue;
    if (f.match("--gpus", &req.world)) continue;
    if (f.match_tokens("--seq", &req.s_global)) continue;
    if (f.match_tokens("--budget", &req.hbm_budget_bytes)) continue;  // bytes; K/M suffix ok
    if (f.match("--top-k", &req.top_k)) continue;
    if (f.match("--steps", &req.steps)) continue;
    if (f.match("--seed", &req.seed)) continue;
    if (f.match("--cache", &req.cache_path)) continue;
    if (f.match("--json", &json_path)) continue;
    if (f.match("--sweep", &sweep)) continue;
    if (f.match("--csv", &csv_path)) continue;
    if (f.match("--max-chunks", &max_chunks)) continue;
    if (f.match("--backend", &backend)) continue;
    f.unknown();
  }
  if (!backend.empty()) {
    kernels::backend(backend);  // fail fast on unknown names
    req.space.kernel_backends = {backend};
  }
  if (!hw_name.empty()) req.hw = sim::hw_preset(hw_name);
  if (grid) {
    // Opt the 2D grid axes into the sweep: flat plus a two-rank node / head
    // axis (the planner drops shapes the world or model cannot carry).
    req.space.ranks_per_node = {0, 2};
    req.space.head_degrees = {0, 2};
  }

  if (sweep == "chunk") {
    const std::vector<tune::ChunkSweepRow> rows = tune::chunk_sweep();
    TextTable t = tune::chunk_sweep_table(rows);
    std::cout << "Figure 12 — MFU and HBM vs chunk size at 256K global sequence"
                 " (tuner analytic sweep)\n";
    t.print(std::cout);
    t.write_csv(csv_path);
    std::cout << "wrote " << csv_path << "\n";
    std::string why;
    if (!tune::check_chunk_curve(rows, &why)) {
      std::cerr << "chunk curve shape check FAILED:\n" << why;
      return 1;
    }
    std::cout << "curve shape: monotone-then-flat around the modeled sweet spot — OK\n";
    return 0;
  }
  if (!sweep.empty()) throw FpdtError("unknown tune sweep: " + sweep + " (try chunk)");

  req.model = nn::model_by_name(model);
  if (max_chunks > 0) {
    req.space.chunks_per_rank.clear();
    for (std::int64_t u = 1; u <= max_chunks; u *= 2) req.space.chunks_per_rank.push_back(u);
  }

  const tune::TuneReport rep = tune::tune(req);
  std::cout << "tune: " << rep.model << ", " << rep.world << " GPUs, seq "
            << format_token_count(rep.s_global) << ", HBM budget "
            << format_bytes(rep.budget_bytes) << "\n"
            << "      enumerated " << rep.enumerated << ", pruned " << rep.pruned_count
            << " (conservative model-state floor), executed " << rep.executed_count << " ("
            << rep.cache_hits << " cache hit" << (rep.cache_hits == 1 ? "" : "s") << ")\n"
            << rep.table();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << rep.json() << "\n";
    FPDT_CHECK(out.good()) << " cannot write " << json_path;
    std::cout << "wrote " << json_path << "\n";
  }
  const tune::TuneRow* w = rep.winning();
  if (w == nullptr) {
    std::cout << "no executed candidate fits the budget — raise --budget, widen --top-k, or"
                 " shrink the model\n";
    return 1;
  }
  const core::FpdtConfig cfg = rep.winning_config();
  std::cout << "winner: " << w->planned.cand.label << " — measured "
            << format_seconds(w->measured.virtual_step_s) << "/step, "
            << cell_f2(w->measured.tokens_per_s) << " tok/s, hbm peak "
            << format_bytes(w->measured.hbm_peak_bytes) << " (budget "
            << format_bytes(rep.budget_bytes) << ")\n"
            << "FpdtConfig: chunks_per_rank=" << cfg.chunks_per_rank
            << " offload=" << (cfg.offload ? "true" : "false")
            << " double_buffer=" << (cfg.double_buffer ? "true" : "false")
            << " cache_forward_outputs=" << (cfg.cache_forward_outputs ? "true" : "false")
            << " ffn_chunk_multiplier=" << cfg.ffn_chunk_multiplier
            << " lm_head_chunks=" << cfg.lm_head_chunks << " zero_stage=" << cfg.zero_stage
            << "\n";
  return 0;
}

// ---- fpdt topo -------------------------------------------------------------

// Bitwise tensor equality — the differential contract between flat and
// hierarchical collectives is bit-identity, not closeness.
bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

int compare_ranks(const char* what, int P, int nodes, const std::vector<Tensor>& flat,
                  const std::vector<Tensor>& hier) {
  for (std::size_t r = 0; r < flat.size(); ++r) {
    if (!bitwise_equal(flat[r], hier[r])) {
      std::cerr << "topo verify FAILED: " << what << " ranks=" << P << " nodes=" << nodes
                << " rank " << r << " differs from flat\n";
      return 1;
    }
  }
  return 0;
}

// Differential oracle: every collective of comm::HierarchicalProcessGroup
// against the flat seed group on identical seeded inputs, across
// ranks {4,8,16} x nodes {1,2,4}. The hierarchical payload contract is
// bitwise equality on every rank — the hierarchy may only re-price
// transport, never touch a float.
int topo_verify() {
  int failures = 0;
  for (const int P : {4, 8, 16}) {
    for (const int nodes : {1, 2, 4}) {
      if (P % nodes != 0) continue;
      const int rpn = P / nodes;
      comm::ProcessGroup flat(P);
      comm::HierarchicalProcessGroup hier(
          topo::Topology::grid(nodes, rpn, sim::a100_80g_node()));
      Rng rng(0xF0D7u + static_cast<std::uint64_t>(P * 10 + nodes));

      // Ulysses All2All, both directions, plus the exact round trip.
      std::vector<Tensor> heads;
      for (int r = 0; r < P; ++r) heads.push_back(Tensor::randn({3, 2 * P, 4}, rng));
      const auto gf = flat.all_to_all_heads_to_seq(heads);
      const auto gh = hier.all_to_all_heads_to_seq(heads);
      failures += compare_ranks("heads_to_seq", P, nodes, gf, gh);
      failures += compare_ranks("seq_to_heads", P, nodes, flat.all_to_all_seq_to_heads(gf),
                                hier.all_to_all_seq_to_heads(gh));

      std::vector<Tensor> shard, full, vec, ring;
      for (int r = 0; r < P; ++r) {
        shard.push_back(Tensor::randn({5, 3}, rng));
        full.push_back(Tensor::randn({2 * P, 3}, rng));
        vec.push_back(Tensor::randn({7}, rng));
        ring.push_back(Tensor::randn({4}, rng));
      }
      failures += compare_ranks("all_gather", P, nodes, flat.all_gather(shard),
                                hier.all_gather(shard));
      failures += compare_ranks("reduce_scatter", P, nodes, flat.reduce_scatter(full),
                                hier.reduce_scatter(full));
      failures += compare_ranks("all_reduce", P, nodes, flat.all_reduce(vec),
                                hier.all_reduce(vec));
      failures += compare_ranks("ring_shift", P, nodes, flat.ring_shift(ring),
                                hier.ring_shift(ring));

      const topo::LinkStats ls = hier.link_stats();
      std::cout << "topo verify OK: ranks=" << P << " nodes=" << nodes << " rpn=" << rpn
                << " — all collectives bitwise-identical to flat; " << ls.to_string() << "\n";
      if (nodes > 1 && ls.inter_bytes == 0) {
        std::cerr << "topo verify FAILED: multi-node run charged no inter-node traffic\n";
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

// 2D-vs-1D trainer differential: one FPDT training step at world 4, flat/1D
// against the 2x2 grid (2 nodes x 2 ranks, head axis on-node), same seed and
// tokens, under both kernel backends. The grid re-routes traffic only, so
// the losses must agree bit for bit.
int topo_grid_check() {
  const nn::ModelConfig mc = nn::tiny_gpt(64, 2, 4, 96);
  const int world = 4;
  const std::int64_t chunks = 2, chunk_tokens = 32;
  const std::int64_t s_global = static_cast<std::int64_t>(world) * chunks * chunk_tokens;
  int failures = 0;
  for (const char* backend : {"scalar", "simd"}) {
    kernels::BackendScope scope(backend);
    double losses[2] = {0.0, 0.0};
    std::int64_t inter_bytes = 0;
    for (int g = 0; g < 2; ++g) {
      core::FpdtConfig cfg;
      cfg.chunks_per_rank = chunks;
      if (g == 1) {
        cfg.ranks_per_node = 2;
        cfg.head_degree = 2;
        FPDT_CHECK(parallel::Grid2D::valid(world, cfg.ranks_per_node, cfg.head_degree,
                                           mc.n_head));
      }
      nn::Model model(mc, 1234);
      core::FpdtTrainer trainer(model, world, cfg);
      data::SyntheticCorpus corpus(mc.vocab, 7);
      losses[g] = trainer.train_step_grads(corpus.sample(s_global + 1));
      if (g == 1) inter_bytes = trainer.env().pg().link_stats().inter_bytes;
    }
    if (std::memcmp(&losses[0], &losses[1], sizeof(double)) != 0) {
      std::cerr.precision(17);
      std::cerr << "topo grid-check FAILED (" << backend << "): 1D loss " << losses[0]
                << " != 2D loss " << losses[1] << "\n";
      ++failures;
      continue;
    }
    std::cout.precision(17);
    std::cout << "topo grid-check OK (" << backend << "): 2x2 grid loss " << losses[1]
              << " bitwise == 1D, inter-node traffic " << format_bytes(inter_bytes) << "\n";
  }
  return failures == 0 ? 0 : 1;
}

// Weak-scaling sweep (default), flat-vs-hier differential (--verify), and
// the 2D-vs-1D trainer bit-identity drill (--grid-check). The sweep writes
// weak_scaling.csv and --check gates its shape contract — what
// ci/topo_smoke.sh runs.
int cmd_topo(int argc, char** argv, int base) {
  std::string ranks = "64..1024", hw_name, model = "gpt-6.7b";
  std::string csv_path = "weak_scaling.csv";
  topo::TopoModelOptions mopt;
  bool check = false, verify = false, grid_check = false;
  cli::FlagParser f("topo", argc, argv, base);
  while (f.more()) {
    if (f.match("--ranks", &ranks)) continue;
    if (f.match("--hw", &hw_name)) continue;
    if (f.match("--model", &model)) continue;
    if (f.match_tokens("--ctx-per-gpu", &mopt.ctx_per_gpu)) continue;
    if (f.match_tokens("--chunks", &mopt.chunks_per_rank)) continue;
    if (f.match("--csv", &csv_path)) continue;
    if (f.match_set("--check", &check)) continue;
    if (f.match_set("--verify", &verify)) continue;
    if (f.match_set("--grid-check", &grid_check)) continue;
    f.unknown();
  }

  if (verify || grid_check) {
    int rc = 0;
    if (verify) rc |= topo_verify();
    if (grid_check) rc |= topo_grid_check();
    return rc;
  }

  const std::size_t dots = ranks.find("..");
  FPDT_CHECK(dots != std::string::npos) << " --ranks wants lo..hi (e.g. 64..1024)";
  const int lo = std::atoi(ranks.substr(0, dots).c_str());
  const int hi = std::atoi(ranks.substr(dots + 2).c_str());
  const sim::HardwareSpec hw = sim::hw_preset(hw_name);
  mopt.model = nn::model_by_name(model);

  const std::vector<topo::ScalingRow> rows = topo::weak_scaling(hw, lo, hi, mopt);
  std::cout << "weak scaling — " << mopt.model.name << ", "
            << format_token_count(mopt.ctx_per_gpu) << " tokens/GPU, " << hw.gpus_per_node
            << " GPUs/node (flat vs hierarchical routing)\n";
  TextTable t({"gpus", "nodes", "seq", "flat step", "hier step", "speedup", "flat mfu",
               "hier mfu", "flat ib", "hier ib"});
  for (const topo::ScalingRow& r : rows) {
    t.add_row({std::to_string(r.gpus), std::to_string(r.nodes), format_token_count(r.seq_global),
               format_seconds(r.flat_step_s), format_seconds(r.hier_step_s),
               cell_f2(r.speedup) + "x", cell_pct(r.flat_mfu), cell_pct(r.hier_mfu),
               cell_pct(r.flat_inter_util), cell_pct(r.hier_inter_util)});
  }
  t.print(std::cout);
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << topo::scaling_csv(rows);
    FPDT_CHECK(out.good()) << " cannot write " << csv_path;
    std::cout << "wrote " << csv_path << "\n";
  }
  if (check) {
    std::string why;
    if (!topo::check_weak_scaling(rows, hw, mopt.ctx_per_gpu, &why)) {
      std::cerr << "weak-scaling shape check FAILED:\n" << why << "\n";
      return 1;
    }
    std::cout << "curve shape: hier beats flat on every multi-node point — OK\n";
  }
  return 0;
}

// Lists the registered math-kernel backends, which one is active for this
// process (FPDT_KERNEL_BACKEND or "scalar"), and whether "simd" dispatches
// to runtime-detected AVX2/FMA or the portable fallback. ci/kernel_smoke.sh
// greps this before asserting a speedup.
int cmd_kernels() {
  TextTable t({"backend", "active", "notes"});
  for (const std::string& name : kernels::available()) {
    std::string notes;
    if (name == "scalar") {
      notes = "bit-exact reference";
    } else if (name == "simd") {
      notes = kernels::simd_uses_avx2() ? "avx2+fma (runtime-detected)"
                                        : "portable fallback (no avx2)";
    }
    t.add_row({name, name == kernels::active_name() ? "*" : "", notes});
  }
  t.print(std::cout);
  return 0;
}

// `fpdt bench` — the canonical perf-snapshot suite (obs/bench.h): prints
// the human table and, with --out-dir, writes the auto-numbered
// BENCH_<n>.json that ci/bench_smoke.sh gates against its baseline.
int cmd_bench(int argc, char** argv, int base) {
  obs::BenchOptions opt;
  bool json_only = false;
  bool active_only = false;
  cli::FlagParser f("bench", argc, argv, base);
  while (f.more()) {
    if (f.match("--out-dir", &opt.out_dir)) continue;
    if (f.match("--steps", &opt.steps)) continue;
    if (f.match("--seed", &opt.seed)) continue;
    if (f.match_set("--active-backend-only", &active_only)) continue;
    if (f.match_set("--json", &json_only)) continue;
    f.unknown();
  }
  opt.all_backends = !active_only;

  std::string path;
  const obs::BenchReport rep = obs::run_bench(opt, &path);
  if (json_only) {
    std::cout << rep.json() << "\n";
  } else {
    std::cout << rep.table();
  }
  if (!path.empty()) std::cerr << "wrote bench snapshot to " << path << "\n";
  return 0;
}

// Multi-tenant serving engine: a seeded synthetic workload (mixed-length
// prompts, Poisson arrivals) through chunked prefill + paged two-tier KV +
// continuous batching. Virtual compute by default so the stock 64-session
// 2K–256K mix finishes in CI time; --execute runs the real model math and
// --verify replays every session bitwise against the monolithic
// nn::InferenceSession.
int cmd_serve(int argc, char** argv, int base) {
  serve::ServeOptions opt;
  std::string model_name = "tiny-gpt";
  std::string backend;
  std::string fault_spec;
  std::string metrics_path;
  bool print_transcript = false;
  cli::FlagParser f("serve", argc, argv, base);
  while (f.more()) {
    if (f.match("--sessions", &opt.traffic.sessions)) continue;
    if (f.match("--seed", &opt.traffic.seed)) continue;
    if (f.match_tokens("--min-len", &opt.traffic.min_prompt_tokens)) continue;
    if (f.match_tokens("--max-len", &opt.traffic.max_prompt_tokens)) continue;
    if (f.match("--decode-min", &opt.traffic.min_decode_tokens)) continue;
    if (f.match("--decode-max", &opt.traffic.max_decode_tokens)) continue;
    if (f.match_tokens("--page-tokens", &opt.page_tokens)) continue;
    if (f.match_tokens("--chunk-tokens", &opt.chunk_tokens)) continue;
    if (f.match("--max-active", &opt.max_active)) continue;
    if (f.match("--gpus", &opt.world)) continue;
    if (f.match_tokens("--hbm", &opt.hbm_bytes)) continue;
    if (f.match("--model", &model_name)) continue;
    if (f.match("--backend", &backend)) continue;
    if (f.match("--faults", &fault_spec)) continue;
    if (f.match("--metrics", &metrics_path)) continue;
    if (f.match_set("--execute", &opt.execute)) continue;
    if (f.match_set("--verify", &opt.verify)) continue;
    if (f.match_set("--print-transcript", &print_transcript)) continue;
    f.unknown();
  }
  if (opt.verify) opt.execute = true;
  opt.model = nn::model_by_name(model_name);
  kernels::BackendScope scope(backend);
  if (!fault_spec.empty()) fault::FaultInjector::instance().configure(fault_spec);

  std::cout << "serve: model " << opt.model.name << " gpus " << opt.world << " | sessions "
            << opt.traffic.sessions << " seed " << opt.traffic.seed << " prompts "
            << format_token_count(opt.traffic.min_prompt_tokens) << ".."
            << format_token_count(opt.traffic.max_prompt_tokens) << " decode "
            << opt.traffic.min_decode_tokens << ".." << opt.traffic.max_decode_tokens << "\n";
  std::cout << "serve: page " << format_token_count(opt.page_tokens) << " tokens, chunk "
            << format_token_count(opt.chunk_tokens) << " tokens, max-active " << opt.max_active
            << ", hbm " << format_bytes(opt.hbm_bytes) << ", "
            << (opt.execute ? "executed" : "virtual") << " compute, backend "
            << kernels::active_name() << "\n";

  serve::ServingEngine engine(opt);
  const serve::ServeReport report = engine.run();

  if (print_transcript) {
    for (const std::string& line : report.transcript) std::cout << line << "\n";
  }
  std::cout << report.table();
  std::cout << report.summary() << "\n";
  std::cout << report.timeline.to_string() << "\n";
  if (!fault_spec.empty()) {
    std::cout << fault::FaultInjector::instance().stats().to_string();
    fault::FaultInjector::instance().disable();
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << obs::MetricsRegistry::global().json();
    std::cout << "serve: metrics -> " << metrics_path << "\n";
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // FPDT_FAULTS arms the injector process-wide (off when unset): any
    // command — profile, overlap — then runs under injected faults.
    fpdt::fault::FaultInjector::instance().configure_from_env();
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "plan" && argc >= 4) {
      return cmd_plan(argv[2], std::atoi(argv[3]), argc > 4 ? std::atoi(argv[4]) : 80);
    }
    if (cmd == "maxlen" && argc >= 5) {
      return cmd_maxlen(argv[2], argv[3], std::atoi(argv[4]),
                        argc > 5 ? std::atoi(argv[5]) : 80);
    }
    if (cmd == "memory" && argc >= 6) {
      return cmd_memory(argv[2], argv[3], std::atoi(argv[4]), argv[5]);
    }
    if (cmd == "simulate" && argc >= 5) {
      return cmd_simulate(argv[2], std::atoi(argv[3]), argv[4], argc > 5 ? argv[5] : "64K");
    }
    if (cmd == "trace" && argc >= 6) {
      return cmd_trace(argv[2], std::atoi(argv[3]), argv[4], argv[5]);
    }
    if (cmd == "overlap") {
      int gpus = 2;
      std::int64_t chunks = 4, chunk_tokens = 64;
      std::string trace_path;
      int pos = 0;
      for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--trace") {
          FPDT_CHECK_LT(i + 1, argc) << " missing value for --trace";
          trace_path = argv[++i];
          continue;
        }
        if (pos == 0) gpus = std::atoi(argv[i]);
        else if (pos == 1) chunks = std::atoll(argv[i]);
        else if (pos == 2) chunk_tokens = std::atoll(argv[i]);
        ++pos;
      }
      return cmd_overlap(gpus, chunks, chunk_tokens, trace_path);
    }
    if (cmd == "kernels") return cmd_kernels();
    if (cmd == "profile") return cmd_profile(argc, argv, 2);
    if (cmd == "chaos") return cmd_chaos(argc, argv, 2);
    if (cmd == "elastic") return cmd_elastic(argc, argv, 2);
    if (cmd == "footprint") return cmd_footprint(argc, argv, 2);
    if (cmd == "tune") return cmd_tune(argc, argv, 2);
    if (cmd == "topo") return cmd_topo(argc, argv, 2);
    if (cmd == "bench") return cmd_bench(argc, argv, 2);
    if (cmd == "serve") return cmd_serve(argc, argv, 2);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
