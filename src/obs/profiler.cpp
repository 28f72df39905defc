#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/grid2d.h"
#include "parallel/strategy.h"
#include "parallel/zero/sharded_optimizer.h"
#include "sim/runtime_bridge.h"

namespace fpdt::obs {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// JSON has no NaN/Inf literals; degenerate values render as 0.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

std::string phase_of(const std::string& label) {
  // Fault-injection retry backoffs ("retry.fetch.k.0.1", "retry.all_reduce")
  // are their own phase, so recovery cost is visible in the breakdown.
  if (starts_with(label, "retry.")) return "retry";
  // Transfer spans keep their stream-of-origin identity.
  if (starts_with(label, "fetch.")) return "fetch";
  if (starts_with(label, "offload.")) return "offload";
  // Backward recompute spans classify with their forward counterparts.
  const std::string base = starts_with(label, "bwd.") ? label.substr(4) : label;
  if (starts_with(base, "proj") || starts_with(base, "qkv")) return "qkv";
  if (starts_with(base, "a2a")) return "all2all";
  if (starts_with(base, "all_gather") || starts_with(base, "reduce_scatter") ||
      starts_with(base, "all_reduce") || starts_with(base, "ring_shift")) {
    return "comm";
  }
  if (starts_with(base, "attn")) return "attention";
  if (starts_with(base, "post") || starts_with(base, "ffn") || starts_with(base, "out_proj")) {
    return "ffn";
  }
  if (starts_with(base, "embed")) return "embed";
  if (starts_with(base, "loss")) return "loss";
  if (starts_with(base, "optimizer")) return "optimizer";
  return "other";
}

void StepStats::set_host_times(double wall, double cpu) {
  wall_s = wall;
  cpu_s = cpu;
  const double denom = wall * static_cast<double>(parallel_workers());
  parallel_efficiency = denom > 0.0 ? cpu / denom : 0.0;
}

std::string StepStats::json() const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"step\":" << step << ",\"tokens\":" << tokens << ",\"loss\":" << finite(loss)
     << ",\"virtual_step_s\":" << finite(virtual_step_s)
     << ",\"wall_s\":" << finite(wall_s) << ",\"cpu_s\":" << finite(cpu_s)
     << ",\"tokens_per_s\":" << finite(tokens_per_s)
     << ",\"compute_busy_s\":" << finite(compute_busy_s)
     << ",\"h2d_busy_s\":" << finite(h2d_busy_s) << ",\"d2h_busy_s\":" << finite(d2h_busy_s)
     << ",\"hidden_transfer_s\":" << finite(hidden_transfer_s)
     << ",\"exposed_transfer_s\":" << finite(exposed_transfer_s)
     << ",\"overlap_ratio\":" << finite(overlap_ratio) << ",\"h2d_bytes\":" << h2d_bytes
     << ",\"d2h_bytes\":" << d2h_bytes << ",\"all2all_bytes\":" << all2all_bytes
     << ",\"intra_link_bytes\":" << intra_link_bytes
     << ",\"inter_link_bytes\":" << inter_link_bytes
     << ",\"inter_bw_util\":" << finite(inter_bw_util)
     << ",\"hbm_peak_bytes\":" << hbm_peak_bytes
     << ",\"flops\":" << flops << ",\"op_bytes\":" << op_bytes
     << ",\"mfu\":" << finite(mfu) << ",\"achieved_gbps\":" << finite(achieved_gbps)
     << ",\"arith_intensity\":" << finite(arith_intensity)
     << ",\"parallel_efficiency\":" << finite(parallel_efficiency) << ",\"phase_s\":{";
  bool first = true;
  for (const auto& [phase, seconds] : phase_s) {
    if (!first) os << ",";
    first = false;
    os << "\"" << phase << "\":" << finite(seconds);
  }
  os << "},\"phase_flops\":{";
  first = true;
  for (const auto& [phase, f] : phase_flops) {
    if (!first) os << ",";
    first = false;
    os << "\"" << phase << "\":" << f;
  }
  os << "},\"phase_mfu\":{";
  first = true;
  for (const auto& [phase, m] : phase_mfu) {
    if (!first) os << ",";
    first = false;
    os << "\"" << phase << "\":" << finite(m);
  }
  os << "}}";
  return os.str();
}

StepProfiler::StepProfiler(core::FpdtEnv& env, sim::HardwareSpec hw)
    : env_(&env), hw_(hw) {}

void StepProfiler::begin_step() {
  env_->reset_stream_timelines();  // synchronizes first
  env_->reset_peaks();
  h2d_base_ = env_->device(0).transfers().h2d_bytes;
  d2h_base_ = env_->device(0).transfers().d2h_bytes;
  a2a_base_ = env_->pg().stats().all_to_all_bytes;
  link_base_ = env_->pg().link_stats();
  work_base_ = Workmeter::instance().snapshot();
}

StepStats StepProfiler::end_step(int step, std::int64_t tokens, double loss) {
  const runtime::TimelineReport report = env_->timeline_report(0);  // syncs rank 0
  env_->synchronize_streams();              // ...and every other rank

  StepStats st;
  st.step = step;
  st.tokens = tokens;
  st.loss = loss;
  st.virtual_step_s = report.makespan_s;
  st.tokens_per_s =
      st.virtual_step_s > 0.0 ? static_cast<double>(tokens) / st.virtual_step_s : 0.0;
  st.compute_busy_s = report.compute_busy_s;
  st.h2d_busy_s = report.h2d_busy_s;
  st.d2h_busy_s = report.d2h_busy_s;
  st.hidden_transfer_s = report.hidden_transfer_s;
  st.exposed_transfer_s = report.exposed_transfer_s;
  st.overlap_ratio = report.overlap_ratio();
  st.h2d_bytes = env_->device(0).transfers().h2d_bytes - h2d_base_;
  st.d2h_bytes = env_->device(0).transfers().d2h_bytes - d2h_base_;
  st.all2all_bytes = env_->pg().stats().all_to_all_bytes - a2a_base_;
  const topo::LinkStats link = env_->pg().link_stats();
  st.intra_link_bytes = link.intra_bytes - link_base_.intra_bytes;
  st.inter_link_bytes = link.inter_bytes - link_base_.inter_bytes;
  if (st.virtual_step_s > 0.0) {
    st.inter_bw_util =
        std::min(1.0, (link.inter_busy_s - link_base_.inter_busy_s) / st.virtual_step_s);
  }
  st.hbm_peak_bytes = env_->max_hbm_peak();
  for (const runtime::StreamSpan& s : env_->device(0).compute_stream().spans()) {
    st.phase_s[phase_of(s.label)] += s.duration();
  }
  for (const runtime::StreamSpan& s : env_->device(0).h2d_stream().spans()) {
    st.phase_s[phase_of(s.label)] += s.duration();
  }
  for (const runtime::StreamSpan& s : env_->device(0).d2h_stream().spans()) {
    st.phase_s[phase_of(s.label)] += s.duration();
  }

  // Work accounting: whole-group workmeter delta over the step, evaluated
  // against the per-device roofline (one device's share of the work over
  // the step's virtual makespan).
  const WorkSnapshot work = Workmeter::instance().snapshot().since(work_base_);
  st.flops = work.total_flops();
  st.op_bytes = work.total_bytes();
  const double world = static_cast<double>(env_->world());
  const sim::RooflinePoint roof = sim::roofline_eval(
      hw_, static_cast<double>(st.flops) / world, static_cast<double>(st.op_bytes) / world,
      st.virtual_step_s);
  st.mfu = roof.mfu;
  st.achieved_gbps = roof.achieved_gbps;
  st.arith_intensity = roof.intensity;
  const double step_peak_flops = st.virtual_step_s * world * hw_.peak_flops;
  for (const auto& [phase, w] : work.phase) {
    st.phase_flops[phase] = w.flops;
    if (step_peak_flops > 0.0)
      st.phase_mfu[phase] = static_cast<double>(w.flops) / step_peak_flops;
  }

  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("steps").add(1);
  reg.counter("tokens").add(tokens);
  reg.histogram("step.virtual_s").observe(st.virtual_step_s);
  reg.histogram("step.tokens_per_s").observe(st.tokens_per_s);
  reg.counter("transfer.h2d_bytes", "rank=0").add(st.h2d_bytes);
  reg.counter("transfer.d2h_bytes", "rank=0").add(st.d2h_bytes);
  reg.counter("comm.all2all_bytes").add(st.all2all_bytes);
  if (st.intra_link_bytes > 0 || st.inter_link_bytes > 0) {
    reg.counter("comm.intra_link_bytes").add(st.intra_link_bytes);
    reg.counter("comm.inter_link_bytes").add(st.inter_link_bytes);
    reg.gauge("comm.inter_bw_util").set(st.inter_bw_util);
  }
  reg.gauge("hbm.peak_bytes").set(static_cast<double>(st.hbm_peak_bytes));
  reg.gauge("overlap.ratio", "rank=0").set(st.overlap_ratio);
  reg.gauge("transfer.hidden_s", "rank=0").set(st.hidden_transfer_s);
  reg.gauge("transfer.exposed_s", "rank=0").set(st.exposed_transfer_s);
  for (const auto& [phase, seconds] : st.phase_s) {
    reg.histogram("phase.seconds", "phase=" + phase).observe(seconds);
  }
  if (st.flops > 0) {
    reg.histogram("step.mfu").observe(st.mfu);
    reg.histogram("step.achieved_gbps").observe(st.achieved_gbps);
    reg.gauge("roofline.intensity").set(st.arith_intensity);
    reg.counter("work.flops").add(st.flops);
    reg.counter("work.bytes").add(st.op_bytes);
    for (int k = 0; k < kOpKinds; ++k) {
      if (work.kind[k].flops == 0) continue;
      const std::string labels = std::string("kind=") + op_kind_name(static_cast<OpKind>(k));
      reg.counter("work.flops", labels).add(work.kind[k].flops);
      reg.counter("work.calls", labels).add(work.calls[k]);
    }
    for (const auto& [phase, m] : st.phase_mfu) {
      reg.gauge("phase.mfu", "phase=" + phase).set(m);
    }
  }
  // Perfetto counter tracks on rank 0's clock (now = end of step): one
  // sample per step, so the trace shows the MFU/bandwidth trajectory next
  // to the spans that produced it.
  if (tracing_enabled() && st.flops > 0) {
    Tracer& tracer = Tracer::instance();
    tracer.counter(kCatPerf, "mfu", 0, st.mfu);
    tracer.counter(kCatPerf, "achieved_gbps", 0, st.achieved_gbps);
    tracer.counter(kCatPerf, "arith_intensity", 0, st.arith_intensity);
    tracer.counter(kCatPerf, "step_tflops", 0, static_cast<double>(st.flops) / 1e12);
  }
  return st;
}

// ---- fpdt profile ----------------------------------------------------------

std::string ProfileResult::json(const ProfileOptions& opt) const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"strategy\":\"" << opt.strategy << "\",\"model\":\"" << opt.model.name
     << "\",\"world\":" << opt.world << ",\"steps\":" << opt.steps
     << ",\"chunks\":" << opt.cfg.chunks_per_rank << ",\"chunk_tokens\":" << opt.chunk_tokens
     << ",\"zero_stage\":" << opt.cfg.zero_stage
     << ",\"ranks_per_node\":" << opt.cfg.ranks_per_node
     << ",\"head_degree\":" << opt.cfg.head_degree << ",\"tokens_per_step\":" << tokens_per_step
     << ",\"final_loss\":" << finite(final_loss) << ",\"step_stats\":[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) os << ",";
    os << steps[i].json();
  }
  os << "],\"registry\":" << MetricsRegistry::global().json() << "}";
  return os.str();
}

core::FpdtConfig profile_config(const ProfileOptions& opt) {
  return parallel::strategy_config(parallel::parse_strategy(opt.strategy), opt.cfg);
}

ProfileResult run_profile(const ProfileOptions& opt) {
  FPDT_CHECK_GE(opt.steps, 1) << " profile needs at least one step";
  FPDT_CHECK_GE(opt.world, 1) << " profile world size";
  // Resolved before any global state is touched: a bad name leaves the
  // tracer, registry and workmeter as they were.
  const parallel::Strategy strategy = parallel::parse_strategy(opt.strategy);
  const core::FpdtConfig tcfg = profile_config(opt);

  // Select the math-kernel backend for the whole run (model init included);
  // restored on return. Empty = inherit the process default.
  kernels::BackendScope kernel_scope(opt.cfg.kernel_backend);

  Tracer& tracer = Tracer::instance();
  if (opt.trace) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  MetricsRegistry::global().reset();
  // Work metering is on for every profile run: it is side-effect-free on the
  // math (analytic integer charges only) and feeds StepStats' MFU/roofline
  // fields. Reset so each run's deltas start from a clean meter.
  Workmeter& meter = Workmeter::instance();
  meter.reset();
  meter.set_enabled(true);

  const nn::ModelConfig cfg = opt.model;
  nn::Model model(cfg, opt.seed);
  const sim::CostModel cm(opt.hw, opt.world);
  const std::int64_t s_global = static_cast<std::int64_t>(opt.world) *
                                opt.cfg.chunks_per_rank * opt.chunk_tokens;

  // Fail fast on grid shapes the model cannot carry (head_degree must
  // divide the head count; Grid2D names the violated rule).
  parallel::Grid2D::from_config(tcfg, opt.world, cfg.n_head);
  const std::unique_ptr<core::FpdtTrainer> trainer =
      parallel::make_trainer(strategy, model, opt.world, tcfg, opt.hbm_capacity_bytes);
  core::FpdtEnv* env = &trainer->env();
  env->set_stream_rates(sim::stream_rates(cm));

  std::int64_t n_params = 0;
  model.visit_params([&](nn::Param& p) { n_params += p.value.numel(); });

  // Every stage updates through the ZeRO sharded optimizer (stage 0
  // delegates to the replicated nn::Adam; stages 1-3 stay bit-identical to
  // it — tests/test_zero.cpp's contract).
  zero::ShardedOptimizer optimizer(*env, zero::ZeroConfig{tcfg.zero_stage});
  data::SyntheticCorpus corpus(cfg.vocab, 7);
  StepProfiler profiler(*env, opt.hw);

  ProfileResult result;
  result.tokens_per_step = s_global;
  for (int step = 0; step < opt.steps; ++step) {
    const std::vector<std::int32_t> tokens = corpus.sample(s_global + 1);
    profiler.begin_step();
    const auto wall_begin = std::chrono::steady_clock::now();
    const std::clock_t cpu_begin = std::clock();
    const double loss = trainer->train_step_grads(tokens);
    optimizer.step([&](const nn::ParamVisitor& v) { model.visit_params(v); });
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
    const double cpu_s =
        static_cast<double>(std::clock() - cpu_begin) / static_cast<double>(CLOCKS_PER_SEC);
    // Model the optimizer sweep (~10 flops/param) as a compute-stream span
    // per rank so it shows in the step's timeline and phase breakdown.
    for (int r = 0; r < env->world(); ++r) {
      runtime::Device& dev = env->device(r);
      dev.compute_stream().enqueue("optimizer",
                                   dev.rates().gemm_time(10.0 * static_cast<double>(n_params)));
    }
    StepStats st = profiler.end_step(step, s_global, loss);
    st.set_host_times(wall_s, cpu_s);
    // Host-clock figures stay out of the trace, which holds only the
    // deterministic virtual clock: two runs of one build give the same file.
    MetricsRegistry::global().gauge("host.parallel_efficiency").set(st.parallel_efficiency);
    result.steps.push_back(st);
    result.final_loss = loss;
  }

  meter.set_enabled(false);
  if (opt.trace && !opt.trace_path.empty()) tracer.write_chrome_trace(opt.trace_path);
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    out << result.json(opt) << "\n";
    FPDT_CHECK(out.good()) << " cannot write metrics to " << opt.metrics_path;
  }
  if (opt.trace) tracer.set_enabled(false);
  return result;
}

}  // namespace fpdt::obs
