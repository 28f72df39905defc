// fpdt_perfbench — the measuring half of the repository benchmark.
//
// Drives one workload through the libraries' public entry points, times
// every call from outside, checks the outputs, and prints one JSON object of
// raw samples on the last line of stdout. perfbench/run.py builds this
// binary, turns the samples into the metrics BENCHMARK.json names, and owns
// all statistics (so they are tested in one place).
//
//   fpdt_perfbench --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//   fpdt_perfbench --workload W --seed N --setup-only 1
//
// --trace 0 measures the end-to-end numbers with every tracer off. --trace 1
// spends most of the time budget on operations that alternate untraced and
// traced (the repository's obs::Tracer and Workmeter on, plus this
// program's own spans around each call into a layer), and the rest on
// kernel / collective replays at the shapes the workloads issue. Spans stay
// in memory and are written to PATH at exit. --setup-only times one set-up
// in a fresh process and exits, so every set-up sample pays the process's
// one-time costs.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/process_group.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "kernels/backend.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/workmeter.h"
#include "parallel/baseline_trainer.h"
#include "parallel/zero/sharded_optimizer.h"
#include "runtime/device.h"
#include "serve/engine.h"
#include "sim/cost_model.h"
#include "sim/runtime_bridge.h"
#include "sim/timeline.h"

using namespace fpdt;

namespace {

// ---- Clocks -----------------------------------------------------------------

const auto kProcessStart = std::chrono::steady_clock::now();

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart).count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Spans ------------------------------------------------------------------

// One timed call into a layer: the benchmark's own trace, independent of
// obs::Tracer. `parent` indexes the enclosing span (-1 at the root); `run`
// groups the spans of one operation.
struct Span {
  std::string name;
  double start = 0.0, end = 0.0;
  double cpu = 0.0;  // process CPU seconds spent while the span was open
  int parent = -1;
  int run = 0;
};

class SpanLog {
 public:
  bool enabled = false;
  int run = 0;

  int open(const std::string& name) {
    spans_.push_back({name, wall_now(), 0.0, cpu_now(), current_, run});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = wall_now();
    s.cpu = cpu_now() - s.cpu;
    current_ = s.parent;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end << ",\"cpu\":" << s.cpu
          << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}";
    }
    out << "]\n";
    FPDT_CHECK(out.good()) << " cannot write spans to " << path;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

SpanLog g_spans;

// RAII span around one call into a layer; free when spans are off.
class Scope {
 public:
  explicit Scope(const char* name) {
    if (g_spans.enabled) id_ = g_spans.open(name);
  }
  ~Scope() {
    if (id_ >= 0) g_spans.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_ = -1;
};

// ---- Raw output -------------------------------------------------------------

// Cumulative (steal, total) jiffies over all CPUs from /proc/stat: the time
// the hypervisor ran something else on the virtual CPUs.
std::pair<std::int64_t, std::int64_t> steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::int64_t v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

struct OpSample {
  double wall = 0.0, cpu = 0.0;
  std::int64_t tokens = 0;
  double steal = 0.0;  // share of all CPU time stolen while the op ran
};

// Brackets one operation on the wall, process-CPU and steal clocks.
class OpTimer {
 public:
  OpTimer() : w0_(wall_now()), c0_(cpu_now()), s0_(steal_jiffies()) {}
  OpSample stop(std::int64_t tokens) const {
    const auto [steal, total] = steal_jiffies();
    const std::int64_t dt = total - s0_.second;
    return {wall_now() - w0_, cpu_now() - c0_, tokens,
            dt > 0 ? static_cast<double>(steal - s0_.first) / static_cast<double>(dt) : 0.0};
  }

 private:
  double w0_, c0_;
  std::pair<std::int64_t, std::int64_t> s0_;
};

// Started before main, so the first set-up of a process also pays its
// one-time costs (static init, pools, kernel dispatch).
const OpTimer g_process_timer;

struct Output {
  std::vector<OpSample> setups;      // one per set-up (no tokens)
  std::vector<OpSample> ops;         // untraced timed operations
  std::vector<OpSample> traced_ops;  // --trace 1: operations under tracing
  std::int64_t hbm_peak_bytes = 0;
  std::int64_t host_peak_bytes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  // per-layer values measured here
  std::map<std::string, std::vector<double>> samples;  // pooled samples for run.py

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void print_ops(std::ostream& os, const std::vector<OpSample>& ops) {
  os << "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    os << (i ? "," : "") << "[" << ops[i].wall << "," << ops[i].cpu << "," << ops[i].tokens
       << "," << ops[i].steal << "]";
  }
  os << "]";
}

void print_output(const Output& out, const std::string& workload, std::uint64_t seed) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
     << ",\"fingerprint\":{\"parallel_workers\":" << parallel_workers()
     << ",\"avx2\":" << (kernels::simd_uses_avx2() ? "true" : "false")
     << ",\"backend\":\"" << kernels::active_name() << "\"}"
     << ",\"setups\":";
  print_ops(os, out.setups);
  os << ",\"ops\":";
  print_ops(os, out.ops);
  os << ",\"traced_ops\":";
  print_ops(os, out.traced_ops);
  os << ",\"hbm_peak_bytes\":" << out.hbm_peak_bytes
     << ",\"host_peak_bytes\":" << out.host_peak_bytes << ",\"attempted\":" << out.attempted
     << ",\"failed\":" << out.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    os << (i ? "," : "") << "\"" << json_escape(out.failures[i]) << "\"";
  }
  os << "],\"layer\":{";
  bool first = true;
  for (const auto& [k, v] : out.layer) {
    os << (first ? "" : ",") << "\"" << k << "\":" << finite_or_zero(v);
    first = false;
  }
  os << "},\"samples\":{";
  first = true;
  for (const auto& [k, vs] : out.samples) {
    os << (first ? "" : ",") << "\"" << k << "\":[";
    for (std::size_t i = 0; i < vs.size(); ++i) os << (i ? "," : "") << vs[i];
    os << "]";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// Seeds every input stream of a run from the one --seed: each `stream` of
// a `seed` is an independent SplitMix64 draw.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream).next_u64();
}

// Runs `op` until `seconds` of wall time have passed (at least `min_ops`).
void run_for(double seconds, int min_ops, const std::function<void()>& op) {
  const double t_end = wall_now() + seconds;
  for (int i = 0; i < min_ops || wall_now() < t_end; ++i) op();
}

// Turns the repository's tracer and Workmeter and this program's spans on
// or off together.
void set_tracing(bool on) {
  g_spans.enabled = on;
  obs::Tracer::instance().set_enabled(on);
  obs::Workmeter::instance().set_enabled(on);
}

// --trace 1: operations alternate untraced and traced for `seconds`, so
// slow drift of the host hits both sides alike. `op(sink)` runs one
// operation and appends its sample.
void run_alternating(double seconds, int min_ops, Output& out,
                     const std::function<void(std::vector<OpSample>&)>& op) {
  obs::Workmeter::instance().reset();
  obs::Tracer::instance().clear();
  int i = 0;
  run_for(seconds, min_ops, [&] {
    const bool traced = i++ % 2 == 1;
    set_tracing(traced);
    op(traced ? out.traced_ops : out.ops);
    set_tracing(false);
  });
  obs::Tracer::instance().clear();
}

template <typename F>
OpSample timed(std::int64_t tokens, F&& fn) {
  const OpTimer timer;
  fn();
  return timer.stop(tokens);
}

// ---- Training workloads -------------------------------------------------------

struct TrainShape {
  nn::ModelConfig model;
  int world = 1;
  bool fpdt = true;  // core::FpdtTrainer; else parallel::BaselineTrainer (Megatron-SP)
  std::int64_t chunks = 1;
  std::int64_t chunk_tokens = 0;
  int zero_stage = 0;
  std::int64_t s_global = 0;
};

// train-longctx: tiny GPT d=64 (4 heads of 16), 2 layers, world 2,
// 4 chunks/rank x 256 tokens = 2K tokens/step, offload + double buffer +
// cache-forward, ZeRO stage 0.
TrainShape longctx_shape() {
  TrainShape s;
  s.model = nn::tiny_gpt(64, 2, 4, 96);
  s.world = 2;
  s.fpdt = true;
  s.chunks = 4;
  s.chunk_tokens = 256;
  s.zero_stage = 0;
  s.s_global = s.world * s.chunks * s.chunk_tokens;
  return s;
}

// train-wide-zero3: Megatron-SP + ZeRO-3, tiny GPT d=256, 4 heads, vocab
// 512, world 4, 256 tokens/step, no offload.
TrainShape wide_zero3_shape() {
  TrainShape s;
  s.model = nn::tiny_gpt(256, 2, 4, 512);
  s.world = 4;
  s.fpdt = false;
  s.zero_stage = 3;
  s.s_global = 256;
  return s;
}

class TrainSession {
 public:
  TrainSession(const TrainShape& shape, std::uint64_t seed)
      : shape_(shape),
        model_(shape.model, derive_seed(seed, 1)),
        corpus_(shape.model.vocab, derive_seed(seed, 2)) {
    if (shape.fpdt) {
      core::FpdtConfig cfg;
      cfg.chunks_per_rank = shape.chunks;
      cfg.offload = true;
      cfg.double_buffer = true;
      cfg.stream_prefetch = true;
      cfg.cache_forward_outputs = true;
      cfg.zero_stage = shape.zero_stage;
      cfg.kernel_backend = "simd";
      fpdt_ = std::make_unique<core::FpdtTrainer>(model_, shape.world, cfg);
    } else {
      baseline_ = std::make_unique<parallel::BaselineTrainer>(
          model_, shape.world, parallel::BaselineKind::kMegatronSp, -1, shape.zero_stage);
    }
    env().set_stream_rates(sim::stream_rates(sim::CostModel(sim::a100_80g_node(), shape.world)));
    if (shape.zero_stage >= 1) {
      zopt_ = std::make_unique<zero::ShardedOptimizer>(env(), zero::ZeroConfig{shape.zero_stage});
    }
  }

  // The trainers keep pointers to model_.
  TrainSession(const TrainSession&) = delete;
  TrainSession& operator=(const TrainSession&) = delete;

  core::FpdtEnv& env() { return fpdt_ ? fpdt_->env() : baseline_->env(); }
  nn::Model& model() { return model_; }

  std::vector<std::int32_t> sample() {
    Scope s("data.sample");
    return corpus_.sample(shape_.s_global + 1);
  }

  double grads(const std::vector<std::int32_t>& tokens) {
    if (fpdt_) {
      Scope s("core.train_step_grads");
      return fpdt_->train_step_grads(tokens);
    }
    Scope s("parallel.train_step_grads");
    return baseline_->train_step_grads(tokens);
  }

  void optimize() {
    const auto walk = [this](const nn::ParamVisitor& v) { model_.visit_params(v); };
    if (zopt_) {
      Scope s("zero.optimizer.step");
      zopt_->step(walk);
    } else {
      Scope s("nn.adam.step");
      adam_.step(walk);
    }
  }

  // One full training step: data, forward/backward, optimizer.
  double step() {
    const std::vector<std::int32_t> tokens = sample();
    const double loss = grads(tokens);
    optimize();
    return loss;
  }

 private:
  TrainShape shape_;
  nn::Model model_;
  data::SyntheticCorpus corpus_;
  std::unique_ptr<core::FpdtTrainer> fpdt_;
  std::unique_ptr<parallel::BaselineTrainer> baseline_;
  std::unique_ptr<zero::ShardedOptimizer> zopt_;
  nn::Adam adam_{1e-3};
};

double grad_norm(nn::Model& model) {
  double sq = 0.0;
  model.visit_params([&](nn::Param& p) {
    const float* g = p.grad.data();
    for (std::int64_t i = 0; i < p.grad.numel(); ++i) sq += static_cast<double>(g[i]) * g[i];
  });
  return std::sqrt(sq);
}

constexpr int kWarmupSteps = 2;  // the first two steps run slower (lazy pools)

void run_training(const TrainShape& shape, std::uint64_t seed, double seconds, bool trace,
                  bool setup_only, Output& out) {
  // ---- Set-up, from process start: build model and trainer, warm up. The
  // first step is also the output check against the single-device
  // reference.
  const auto session = std::make_unique<TrainSession>(shape, seed);
  const std::vector<std::int32_t> check_tokens = session->sample();
  const double check_loss = session->grads(check_tokens);
  const double check_gnorm = grad_norm(session->model());
  session->optimize();
  for (int w = 1; w < kWarmupSteps; ++w) {
    const double loss = session->step();
    out.check(std::isfinite(loss), "warm-up loss is not finite");
  }
  out.setups.push_back(g_process_timer.stop(0));
  if (setup_only) {
    out.check(std::isfinite(check_loss), "first-step loss is not finite");
    return;
  }

  // Single-device reference on the scalar backend: the exactness check and
  // the plain single-worker baseline.
  {
    nn::Model ref(shape.model, derive_seed(seed, 1));
    kernels::BackendScope scalar("scalar");
    const double w0 = wall_now();
    const double ref_loss = ref.train_step_grads(check_tokens);
    const double ref_wall = wall_now() - w0;
    const double ref_gnorm = grad_norm(ref);
    // Relative errors; a NaN fails both comparisons.
    const double loss_err = std::abs(check_loss - ref_loss) / std::max(1.0, std::abs(ref_loss));
    const double gnorm_err =
        std::abs(check_gnorm - ref_gnorm) / std::max(1.0, std::abs(ref_gnorm));
    out.check(loss_err <= 1e-4, "first-step loss " + std::to_string(check_loss) +
                                    " vs reference " + std::to_string(ref_loss));
    out.check(gnorm_err <= 1e-3, "first-step grad norm " + std::to_string(check_gnorm) +
                                     " vs reference " + std::to_string(ref_gnorm));
    out.layer["reference_step_wall_s"] = ref_wall;
  }

  core::FpdtEnv& env = session->env();
  env.reset_peaks();
  auto timed_step = [&](std::vector<OpSample>& sink) {
    double loss = 0.0;
    Scope op("op");
    sink.push_back(timed(shape.s_global, [&] { loss = session->step(); }));
    out.check(std::isfinite(loss), "loss is not finite");
    ++g_spans.run;
  };

  if (!trace) {
    run_for(seconds, 3, [&] { timed_step(out.ops); });
    out.hbm_peak_bytes = env.max_hbm_peak();
    out.host_peak_bytes = env.host().pool().peak();
    return;
  }

  // ---- --trace 1: the virtual clock of one step untraced and one traced,
  // then untraced and traced steps alternating.
  obs::Workmeter& meter = obs::Workmeter::instance();
  std::int64_t n_params = 0;
  session->model().visit_params([&](nn::Param& p) { n_params += p.value.numel(); });
  obs::StepProfiler profiler(env);
  // One step under obs::StepProfiler with the Workmeter on; with `traced`
  // the repository's obs::Tracer records it too, and its collective events
  // give the call count (ProcessGroup::stats counts bytes only).
  struct Profiled {
    obs::StepStats stats;
    std::int64_t comm_bytes = 0;
    std::int64_t comm_calls = 0;
  };
  auto profiled_step = [&](bool traced) {
    Profiled p;
    meter.reset();
    meter.set_enabled(true);
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(traced);
    const std::int64_t comm_base = env.pg().stats().total();
    profiler.begin_step();
    const double loss = session->step();
    // The optimizer sweep (~10 flops/param) as a compute-stream span per
    // rank, priced as obs::run_profile prices it, so the virtual figures
    // match `fpdt profile`.
    for (int r = 0; r < env.world(); ++r) {
      runtime::Device& dev = env.device(r);
      dev.compute_stream().enqueue("optimizer",
                                   dev.rates().gemm_time(10.0 * static_cast<double>(n_params)));
    }
    p.stats = profiler.end_step(0, shape.s_global, loss);
    p.comm_bytes = env.pg().stats().total() - comm_base;
    for (const obs::TraceEvent& e : obs::Tracer::instance().events()) {
      if (e.kind == obs::TraceEvent::Kind::kInstant && e.category == obs::kCatComm &&
          e.rank == 0) {
        ++p.comm_calls;
      }
    }
    obs::Tracer::instance().set_enabled(false);
    meter.set_enabled(false);
    out.check(std::isfinite(loss), "profiled loss is not finite");
    return p;
  };

  // Virtual clock with the tracer off (what end-to-end runs see) and on.
  const obs::StepStats untraced = profiled_step(false).stats;
  const Profiled traced = profiled_step(true);
  const obs::WorkSnapshot work = obs::Workmeter::instance().snapshot();

  run_alternating(0.8 * seconds, 6, out, timed_step);
  out.hbm_peak_bytes = env.max_hbm_peak();
  out.host_peak_bytes = env.host().pool().peak();

  const std::string layer = shape.fpdt ? "core" : "parallel";
  out.layer[layer + ".virtual_step_s"] = untraced.virtual_step_s;
  out.layer["obs.virtual_drift"] =
      untraced.virtual_step_s > 0.0
          ? (traced.stats.virtual_step_s - untraced.virtual_step_s) / untraced.virtual_step_s
          : 0.0;
  out.layer["comm.all2all_bytes"] = static_cast<double>(untraced.all2all_bytes);
  out.layer["comm.bytes"] = static_cast<double>(traced.comm_bytes);
  out.layer["comm.calls"] = static_cast<double>(traced.comm_calls);
  for (int k = 0; k < obs::kOpKinds; ++k) {
    const std::string kind = obs::op_kind_name(static_cast<obs::OpKind>(k));
    out.layer["kernels." + kind + ".flops"] = static_cast<double>(work.kind[k].flops);
    out.layer["kernels." + kind + ".calls"] = static_cast<double>(work.calls[k]);
  }
  if (shape.fpdt) {
    out.layer["core.virtual_tokens_per_s"] = untraced.tokens_per_s;
    out.layer["core.virtual_mfu"] = untraced.mfu;
    out.layer["core.overlap_ratio"] = untraced.overlap_ratio;
    out.layer["core.exposed_transfer_s"] = untraced.exposed_transfer_s;
    out.layer["core.h2d_bytes"] = static_cast<double>(untraced.h2d_bytes);
    out.layer["core.d2h_bytes"] = static_cast<double>(untraced.d2h_bytes);
    for (const char* phase : {"attention", "ffn", "qkv", "all2all", "fetch", "offload"}) {
      const auto it = untraced.phase_s.find(phase);
      out.layer[std::string("core.phase.") + phase + "_s"] =
          it == untraced.phase_s.end() ? 0.0 : it->second;
    }
    const std::int64_t s_local = shape.chunks * shape.chunk_tokens;
    const runtime::TimelineReport predicted = sim::sim_timeline_report(sim::build_fpdt_forward_sim(
        shape.model, sim::CostModel(sim::a100_80g_node(), shape.world), s_local, shape.chunks,
        /*offload=*/true, /*double_buffer=*/true, /*caching=*/true));
    out.layer["sim.overlap_drift"] = std::abs(untraced.overlap_ratio - predicted.overlap_ratio());
  }
}

// ---- Serving workload -----------------------------------------------------------

// serve-evict: ServingEngine with 1K-8K log-uniform prompts, 4-32 decode
// tokens, 1K prefill chunks, 256-token pages and 3 MiB of HBM, so the paged
// KV cache evicts to its host tier.
serve::ServeOptions serve_options(std::uint64_t traffic_seed, std::int64_t sessions,
                                  bool execute) {
  serve::ServeOptions opt;
  opt.model = nn::tiny_gpt();
  opt.model_seed = 1234;
  opt.traffic.sessions = sessions;
  opt.traffic.seed = traffic_seed;
  opt.traffic.min_prompt_tokens = 1024;
  opt.traffic.max_prompt_tokens = 8192;
  opt.traffic.mean_interarrival_s = 2e-3;
  opt.traffic.min_decode_tokens = 4;
  opt.traffic.max_decode_tokens = 32;
  opt.page_tokens = 256;
  opt.chunk_tokens = 1024;
  opt.hbm_bytes = 3ll << 20;
  opt.execute = execute;
  return opt;
}

// Timed engine runs draw their prompt lengths from a fixed log-uniform grid
// over 1K-8K (one length per run, kServeSessionsPerRun sessions each) and a
// timed operation is one pass over the whole grid, so every operation and
// every seed serves the same mix of lengths. Host cost grows with the square
// of the prompt length; free draws would make tokens/s depend on the seed's
// mix. The seed still sets decode lengths and prompt tokens. A pass takes
// about 1.3 s, so a 20 s run times about 15 and some of them fall between
// bursts of CPU steal; the 40-session virtual-clock runs below cover
// batching.
constexpr int kServeLengthGrid = 4;
constexpr std::int64_t kServeSessionsPerRun = 1;
constexpr std::int64_t kServeVirtualSessions = 40;  // sessions per virtual-clock run
constexpr int kServeVirtualRuns = 32;               // pooled virtual-clock runs

std::int64_t grid_prompt_tokens(int j) {
  return std::llround(1024.0 * std::pow(8.0, (j + 0.5) / kServeLengthGrid));
}

serve::ServeReport run_engine(const serve::ServeOptions& opt) {
  Scope s("serve.engine.run");
  return serve::ServingEngine(opt).run();
}

void check_report(Output& out, const serve::ServeReport& r, const std::string& what) {
  out.check(r.ok() && r.rejected == 0 && r.completed == r.sessions,
            what + ": serve report not ok (completed " + std::to_string(r.completed) + "/" +
                std::to_string(r.sessions) + ")");
}

void run_serving(std::uint64_t seed, double seconds, bool trace, bool setup_only, Output& out) {
  // ---- Set-up, from process start: one small warm-up engine run (model
  // build, pools, thread pool) of a fixed size, so every seed warms up alike.
  {
    serve::ServeOptions warm = serve_options(derive_seed(seed, 100), 2, true);
    warm.traffic.max_prompt_tokens = warm.traffic.min_prompt_tokens;
    warm.traffic.min_decode_tokens = warm.traffic.max_decode_tokens = 16;
    check_report(out, run_engine(warm), "warm-up");
    out.setups.push_back(g_process_timer.stop(0));
  }
  if (setup_only) return;

  // Untimed differential verify: every session bitwise against the
  // monolithic nn::InferenceSession. At the grid's longest prompt (6317
  // tokens) one session's KV outgrows the 3 MiB of HBM, so the replay covers
  // pages read back from the host tier.
  {
    serve::ServeOptions v = serve_options(derive_seed(seed, 200), 2, true);
    v.traffic.min_prompt_tokens = v.traffic.max_prompt_tokens =
        grid_prompt_tokens(kServeLengthGrid - 1);
    v.verify = true;
    const serve::ServeReport r = serve::ServingEngine(v).run();
    check_report(out, r, "verify");
    out.check(r.verify_ok && r.verified_sessions == 2, "verify against InferenceSession failed");
  }

  // Virtual clock: pooled 40-session runs (accounting mode charges exactly
  // what execute mode charges; the timed loop checks that on its traffic).
  {
    std::vector<double>& ttft = out.samples["serve.ttft_s"];
    std::vector<double>& tpot = out.samples["serve.tpot_s"];
    std::vector<double>& evictions = out.samples["serve.evictions"];
    std::vector<double>& fetches = out.samples["serve.page_fetches"];
    std::vector<double>& ooms = out.samples["serve.oom_events"];
    std::vector<double>& h2d = out.samples["serve.h2d_bytes"];
    double tokens = 0.0, makespan = 0.0;
    for (int i = 0; i < kServeVirtualRuns; ++i) {
      const serve::ServeReport r = serve::ServingEngine(
          serve_options(derive_seed(seed, 1000 + i), kServeVirtualSessions, false)).run();
      check_report(out, r, "virtual run");
      for (const serve::SessionOutcome& o : r.outcomes) {
        ttft.push_back(o.ttft_s);
        if (o.decode_tokens > 1) {
          tpot.push_back((o.complete_s - o.first_token_s) /
                         static_cast<double>(o.decode_tokens - 1));
        }
      }
      evictions.push_back(static_cast<double>(r.cache.evictions));
      fetches.push_back(static_cast<double>(r.cache.fetches));
      ooms.push_back(static_cast<double>(r.cache.oom_events));
      h2d.push_back(static_cast<double>(r.h2d_bytes));
      tokens += static_cast<double>(r.prefill_tokens + r.decoded_tokens);
      makespan += r.makespan_s;
    }
    out.layer["serve.virtual_tokens_per_s"] = makespan > 0.0 ? tokens / makespan : 0.0;
  }

  // ---- Timed engine runs in execute mode, each on fresh seeded traffic.
  // The checks run after the pass's clock stops.
  int index = 0;
  auto check_run = [&](const serve::ServeOptions& opt, const serve::ServeReport& r) {
    check_report(out, r, "engine run");
    // The virtual clock must not depend on whether the floats are computed.
    serve::ServeOptions acct = opt;
    acct.execute = false;
    const serve::ServeReport v = serve::ServingEngine(acct).run();
    out.check(v.makespan_s == r.makespan_s && v.cache.evictions == r.cache.evictions &&
                  v.h2d_bytes == r.h2d_bytes,
              "execute and accounting modes disagree on the virtual clock");
    out.hbm_peak_bytes = std::max(out.hbm_peak_bytes, r.hbm_peak_bytes);
    out.host_peak_bytes = std::max(out.host_peak_bytes, r.host_peak_bytes);
  };
  auto timed_run = [&](std::vector<OpSample>& sink) {
    std::vector<std::pair<serve::ServeOptions, serve::ServeReport>> runs;
    std::int64_t tokens = 0;
    {
      Scope op("op");
      const OpTimer timer;
      for (int j = 0; j < kServeLengthGrid; ++j) {
        serve::ServeOptions opt =
            serve_options(derive_seed(seed, 2000 + index++), kServeSessionsPerRun, true);
        opt.traffic.min_prompt_tokens = opt.traffic.max_prompt_tokens = grid_prompt_tokens(j);
        runs.emplace_back(opt, run_engine(opt));
        tokens += runs.back().second.prefill_tokens + runs.back().second.decoded_tokens;
      }
      sink.push_back(timer.stop(tokens));
    }
    ++g_spans.run;
    for (const auto& [opt, r] : runs) check_run(opt, r);
  };

  if (!trace) {
    run_for(seconds, 1, [&] { timed_run(out.ops); });
    return;
  }
  run_alternating(0.8 * seconds, 4, out, timed_run);
  // Work per operation (one pass over the length grid); the Workmeter
  // counts during traced operations only.
  const double runs = static_cast<double>(out.traced_ops.size());
  const obs::WorkSnapshot work = obs::Workmeter::instance().snapshot();
  for (int k = 0; k < obs::kOpKinds; ++k) {
    const std::string kind = obs::op_kind_name(static_cast<obs::OpKind>(k));
    out.layer["kernels." + kind + ".flops"] = static_cast<double>(work.kind[k].flops) / runs;
    out.layer["kernels." + kind + ".calls"] = static_cast<double>(work.calls[k]) / runs;
  }
}

// ---- Replays --------------------------------------------------------------------

// Times one replay body for `seconds`; returns GFLOP/s from the Workmeter's
// analytic count of what the body dispatched.
double replay_gflops(const char* name, double seconds, const std::function<void()>& body) {
  obs::Workmeter& meter = obs::Workmeter::instance();
  body();  // warm caches outside the window
  meter.reset();
  meter.set_enabled(true);
  double wall = 0.0;
  {
    Scope s(name);
    const double t0 = wall_now();
    run_for(seconds, 3, body);
    wall = wall_now() - t0;
  }
  meter.set_enabled(false);
  const double flops = static_cast<double>(meter.snapshot().total_flops());
  return wall > 0.0 ? flops / wall / 1e9 : 0.0;
}

std::vector<float> random_floats(std::int64_t n, Rng& rng, float scale) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = scale * static_cast<float>(rng.next_uniform(-1.0, 1.0));
  return v;
}

void run_replays(std::uint64_t seed, double seconds, Output& out) {
  const kernels::Backend& be = kernels::backend("simd");
  Rng rng(derive_seed(seed, 3));
  const double each = seconds / 5.0;

  // train-longctx attention: after the All2All each rank holds global
  // chunks of world x 256 = 512 tokens with 4 / 2 = 2 heads of 16; chunk i
  // attends to kv chunks 0..i (causal). Rank workers issue these calls, so
  // replay them inside a parallel region (no intra-op fork), as the
  // executor does.
  {
    const TrainShape sh = longctx_shape();
    kernels::AttnDims dm;
    dm.sq = dm.sk = sh.world * sh.chunk_tokens;
    dm.h = dm.hk = sh.model.n_head / sh.world;
    dm.d = sh.model.head_dim();
    dm.group = 1;
    const std::int64_t n = dm.sq * dm.h * dm.d;
    const std::int64_t u = sh.chunks;
    std::vector<std::vector<float>> q, k, v;
    for (std::int64_t i = 0; i < u; ++i) {
      q.push_back(random_floats(n, rng, 1.0f));
      k.push_back(random_floats(n, rng, 1.0f));
      v.push_back(random_floats(n, rng, 1.0f));
    }
    std::vector<float> acc(static_cast<std::size_t>(n)), m(static_cast<std::size_t>(dm.sq * dm.h)),
        l(m.size()), dout = random_floats(n, rng, 1.0f), lse(m.size(), 8.0f),
        D = random_floats(dm.sq * dm.h, rng, 0.1f), dq(acc.size()), dk(acc.size()),
        dv(acc.size());
    auto fwd = [&] {
      parallel_for_ranks(1, [&](int) {
        for (std::int64_t i = 0; i < u; ++i) {
          std::fill(acc.begin(), acc.end(), 0.0f);
          std::fill(m.begin(), m.end(), -INFINITY);
          std::fill(l.begin(), l.end(), 0.0f);
          for (std::int64_t j = 0; j <= i; ++j) {
            be.online_attn_step(acc.data(), m.data(), l.data(), q[i].data(), k[j].data(),
                                v[j].data(), dm, true, i * dm.sq, j * dm.sk);
          }
        }
      });
    };
    auto bwd = [&] {
      parallel_for_ranks(1, [&](int) {
        for (std::int64_t i = 0; i < u; ++i) {
          for (std::int64_t j = 0; j <= i; ++j) {
            be.online_attn_backward_step(q[i].data(), k[j].data(), v[j].data(), dout.data(),
                                         lse.data(), D.data(), dm, true, i * dm.sq, j * dm.sk,
                                         dq.data(), dk.data(), dv.data());
          }
        }
      });
    };
    out.layer["kernels.attn_fwd.gflops"] = replay_gflops("kernels.replay.attn_fwd", each, fwd);
    out.layer["kernels.attn_bwd.gflops"] = replay_gflops("kernels.replay.attn_bwd", each, bwd);
  }

  // train-wide-zero3 GEMMs: Megatron-SP gathers the 256-token sequence and
  // each of 4 ranks runs its column/row slices of the block's linears
  // (q, k, v: 256 -> 64; out: 64 -> 256; fc1: 256 -> 256; fc2: 256 -> 256),
  // forward (nt) plus both backward products (nn for dx, tn for dW), from
  // the calling thread.
  {
    const TrainShape sh = wide_zero3_shape();
    const std::int64_t s = sh.s_global, d = sh.model.d_model;
    const std::int64_t dr = d / sh.world, fr = sh.model.ffn_hidden / sh.world;
    const std::vector<std::pair<std::int64_t, std::int64_t>> linears = {
        {d, dr}, {d, dr}, {d, dr}, {dr, d}, {d, fr}, {fr, d}};  // {in, out}
    std::int64_t max_in = 0, max_out = 0;
    for (const auto& [in, o] : linears) {
      max_in = std::max(max_in, in);
      max_out = std::max(max_out, o);
    }
    const std::vector<float> x = random_floats(s * max_in, rng, 1.0f);
    const std::vector<float> w = random_floats(max_out * max_in, rng, 0.1f);
    const std::vector<float> dy = random_floats(s * max_out, rng, 1.0f);
    std::vector<float> y(static_cast<std::size_t>(s * max_out)), dx(static_cast<std::size_t>(s * max_in)),
        dw(static_cast<std::size_t>(max_out * max_in));
    auto gemms = [&] {
      for (int r = 0; r < sh.world; ++r) {
        for (const auto& [in, o] : linears) {
          be.gemm_nt(x.data(), w.data(), y.data(), s, in, o);
          be.gemm_nn_acc(dy.data(), w.data(), dx.data(), s, o, in);
          be.gemm_tn_acc(dy.data(), x.data(), dw.data(), s, o, in);
        }
      }
    };
    out.layer["kernels.gemm.gflops"] = replay_gflops("kernels.replay.gemm", each, gemms);
  }

  // serve-evict decode: one query row against an 8K-token KV prefix, all 4
  // heads of the tiny serving model, from the engine thread.
  {
    const nn::ModelConfig cfg = nn::tiny_gpt();
    kernels::AttnDims dm;
    dm.sq = 1;
    dm.sk = 8192;
    dm.h = dm.hk = cfg.n_head;
    dm.d = cfg.head_dim();
    dm.group = 1;
    const std::vector<float> q = random_floats(dm.h * dm.d, rng, 1.0f);
    const std::vector<float> k = random_floats(dm.sk * dm.h * dm.d, rng, 1.0f);
    const std::vector<float> v = random_floats(dm.sk * dm.h * dm.d, rng, 1.0f);
    std::vector<float> acc(static_cast<std::size_t>(dm.h * dm.d)), m(static_cast<std::size_t>(dm.h)),
        l(m.size());
    auto decode = [&] {
      for (int rep = 0; rep < 16; ++rep) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        std::fill(m.begin(), m.end(), -INFINITY);
        std::fill(l.begin(), l.end(), 0.0f);
        be.online_attn_step(acc.data(), m.data(), l.data(), q.data(), k.data(), v.data(), dm,
                            true, dm.sk - 1, 0);
      }
    };
    out.layer["kernels.decode_attn.gflops"] =
        replay_gflops("kernels.replay.decode_attn", each, decode);
  }

  // train-longctx All2All: each of 2 ranks re-shards one 256-token chunk of
  // [256, 4, 16] heads-to-sequence.
  {
    const TrainShape sh = longctx_shape();
    comm::ProcessGroup pg(sh.world);
    std::vector<Tensor> local;
    for (int r = 0; r < sh.world; ++r) {
      local.push_back(Tensor::randn({sh.chunk_tokens, sh.model.n_head, sh.model.head_dim()}, rng));
    }
    std::vector<double> us;
    pg.all_to_all_heads_to_seq(local);
    Scope s("comm.replay.all_to_all");
    run_for(each, 11, [&] {
      const double t0 = wall_now();
      const std::vector<Tensor> global = pg.all_to_all_heads_to_seq(local);
      us.push_back(1e6 * (wall_now() - t0));
      FPDT_CHECK_EQ(global.size(), local.size());
    });
    std::sort(us.begin(), us.end());
    out.layer["comm.a2a_host_us"] = us[us.size() / 2];
  }
}

// ---- main -------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: fpdt_perfbench --workload train-longctx|train-wide-zero3|serve-evict"
               " --seed N (--seconds S --trace 0|1 [--spans PATH] | --setup-only 1)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool setup_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::stoull(val);
    } else if (key == "--seconds") {
      seconds = std::stod(val);
    } else if (key == "--trace") {
      trace = std::stoi(val);
    } else if (key == "--spans") {
      spans_path = val;
    } else if (key == "--setup-only") {
      setup_only = val == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty()) return usage();
  if (setup_only) {
    trace = 0;
  } else if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    kernels::set_active("simd");
    Output out;
    if (workload == "train-longctx") {
      run_training(longctx_shape(), seed, seconds, trace == 1, setup_only, out);
    } else if (workload == "train-wide-zero3") {
      run_training(wide_zero3_shape(), seed, seconds, trace == 1, setup_only, out);
    } else if (workload == "serve-evict") {
      run_serving(seed, seconds, trace == 1, setup_only, out);
    } else {
      return usage();
    }
    if (trace == 1) {
      g_spans.enabled = true;
      run_replays(seed, 0.2 * seconds, out);
      if (!spans_path.empty()) g_spans.write(spans_path);
    }
    print_output(out, workload, seed);
  } catch (const std::exception& e) {
    std::cerr << "fpdt_perfbench: error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
