#include "obs/bench.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "kernels/backend.h"
#include "kernels/op_cost.h"
#include "obs/profiler.h"
#include "tune/tuner.h"

namespace fpdt::obs {

namespace {

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// Short git revision of the working tree, "unknown" outside a repo (the
// snapshot must stay writable from an exported tarball).
std::string git_rev() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
  const int rc = ::pclose(pipe);
  std::string rev(buf, n);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
  return (rc == 0 && !rev.empty()) ? rev : "unknown";
}

// Profiles `opt` and folds the last step's stats into a suite row. Tracing
// is on (no files written) so the trainer's phase spans price embed/loss
// work into the virtual clock exactly as `fpdt profile` does.
BenchSuiteResult run_suite(std::string suite, ProfileOptions opt) {
  opt.trace = true;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  const ProfileResult res = run_profile(opt);
  const StepStats& st = res.steps.back();

  BenchSuiteResult r;
  r.suite = std::move(suite);
  r.backend = opt.cfg.kernel_backend.empty() ? kernels::active_name() : opt.cfg.kernel_backend;
  r.config = profile_config(opt).canonical();
  r.wall_s = st.wall_s;
  r.cpu_s = st.cpu_s;
  r.parallel_efficiency = st.parallel_efficiency;
  r.virtual_step_s = st.virtual_step_s;
  r.mfu = st.mfu;
  r.achieved_gbps = st.achieved_gbps;
  r.arith_intensity = st.arith_intensity;
  r.overlap_ratio = st.overlap_ratio;
  r.flops = st.flops;
  r.op_bytes = st.op_bytes;
  r.hbm_peak_bytes = st.hbm_peak_bytes;
  r.intra_link_bytes = st.intra_link_bytes;
  r.inter_link_bytes = st.inter_link_bytes;
  r.inter_bw_util = st.inter_bw_util;
  r.loss = st.loss;
  return r;
}

// Pinned suite configurations. Changing any knob here invalidates committed
// baselines — bump a new BENCH_<n>.json, don't edit an old one.
ProfileOptions attn_suite(std::uint64_t seed, int steps) {
  ProfileOptions o;
  o.model = nn::tiny_gpt(32, 1, 2, 64);  // narrow model, long chunks:
  o.cfg.chunks_per_rank = 2;             // attention's s^2 term dominates
  o.chunk_tokens = 256;
  o.world = 2;
  o.steps = steps;
  o.seed = seed;
  return o;
}

ProfileOptions gemm_suite(std::uint64_t seed, int steps) {
  ProfileOptions o;
  o.model = nn::tiny_gpt(128, 2, 4, 96);  // wide model, short sequence:
  o.cfg.chunks_per_rank = 2;              // projection/FFN GEMMs dominate
  o.chunk_tokens = 16;
  o.world = 2;
  o.steps = steps;
  o.seed = seed;
  return o;
}

ProfileOptions overlap_suite(std::uint64_t seed, int steps) {
  ProfileOptions o;  // default tiny model; the point is the streaming path
  o.cfg.chunks_per_rank = 8;
  o.chunk_tokens = 64;
  o.world = 2;
  o.cfg.offload = true;
  o.cfg.double_buffer = true;
  o.steps = steps;
  o.seed = seed;
  return o;
}

// topo: the hierarchical-collective path — 4 ranks carved into 2 emulated
// nodes of 2, so every All2All runs the two-phase inter→intra decomposition
// and the link counters split. The loss must equal a flat 4-rank run of the
// same seed bitwise (the hierarchical group's payload contract); what this
// suite tracks is the routing's virtual-clock cost and link occupancy.
ProfileOptions topo_suite(std::uint64_t seed, int steps) {
  ProfileOptions o;  // default tiny model (4 heads)
  o.cfg.chunks_per_rank = 4;
  o.chunk_tokens = 64;
  o.world = 4;
  o.cfg.ranks_per_node = 2;
  o.cfg.head_degree = 2;
  o.steps = steps;
  o.seed = seed;
  return o;
}

// tune-warm: wall/cpu time the *warm-cache* tune() call (a cold run first
// populates the cache), roofline fields from one profiled step of the
// winning configuration.
BenchSuiteResult tune_warm_suite(std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() / "fpdt_bench_tune_cache.json";
  std::error_code ec;
  fs::remove(cache, ec);  // start cold regardless of prior runs

  tune::TuneRequest req;
  req.world = 2;
  req.s_global = 512;
  req.steps = 1;
  req.seed = seed;
  req.top_k = 2;
  req.cache_path = cache.string();
  // Small pinned grid: the suite times cache replay, not the search.
  req.space.chunks_per_rank = {2, 4};
  req.space.zero_stages = {0};
  req.space.ffn_chunk_multipliers = {1};
  req.space.offload = {true};
  req.space.double_buffer = {true};
  req.space.cache_fwd = {true};

  (void)tune::tune(req);  // cold: executes and persists the cache

  const auto wall_begin = std::chrono::steady_clock::now();
  const std::clock_t cpu_begin = std::clock();
  const tune::TuneReport warm = tune::tune(req);  // warm: pure cache replay
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
  const double cpu_s =
      static_cast<double>(std::clock() - cpu_begin) / static_cast<double>(CLOCKS_PER_SEC);
  fs::remove(cache, ec);

  ProfileOptions o;
  o.world = req.world;
  o.steps = 1;
  o.seed = seed;
  if (warm.winner >= 0) o.cfg = warm.winning_config();
  o.chunk_tokens = req.s_global / (static_cast<std::int64_t>(req.world) * o.cfg.chunks_per_rank);
  BenchSuiteResult r = run_suite("tune-warm", o);
  r.wall_s = wall_s;  // the warm tune() call, not the follow-up profile
  r.cpu_s = cpu_s;
  return r;
}

int next_snapshot_number(const std::string& dir) {
  namespace fs = std::filesystem;
  int max_n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    int n = 0;
    if (std::sscanf(name.c_str(), "BENCH_%d.json", &n) == 1) max_n = std::max(max_n, n);
  }
  return max_n + 1;
}

}  // namespace

std::string BenchReport::json() const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"schema\":\"" << json_escape(schema) << "\",\"git_rev\":\"" << json_escape(git_rev)
     << "\",\"world\":" << world << ",\"threads\":" << threads
     << ",\"avx2\":" << (avx2 ? "true" : "false") << ",\"suites\":[";
  bool first = true;
  for (const BenchSuiteResult& r : suites) {
    if (!first) os << ",";
    first = false;
    os << "{\"suite\":\"" << json_escape(r.suite) << "\",\"backend\":\"" << json_escape(r.backend)
       << "\",\"config\":\"" << json_escape(r.config) << "\",\"wall_s\":" << finite(r.wall_s)
       << ",\"cpu_s\":" << finite(r.cpu_s)
       << ",\"parallel_efficiency\":" << finite(r.parallel_efficiency)
       << ",\"virtual_step_s\":" << finite(r.virtual_step_s) << ",\"mfu\":" << finite(r.mfu)
       << ",\"achieved_gbps\":" << finite(r.achieved_gbps)
       << ",\"arith_intensity\":" << finite(r.arith_intensity)
       << ",\"overlap\":" << finite(r.overlap_ratio) << ",\"flops\":" << r.flops
       << ",\"op_bytes\":" << r.op_bytes << ",\"peak_hbm\":" << r.hbm_peak_bytes
       << ",\"intra_link_bytes\":" << r.intra_link_bytes
       << ",\"inter_link_bytes\":" << r.inter_link_bytes
       << ",\"inter_bw_util\":" << finite(r.inter_bw_util)
       << ",\"loss\":" << finite(r.loss) << "}";
  }
  os << "]}";
  return os.str();
}

std::string BenchReport::table() const {
  TextTable t({"suite", "backend", "mfu", "gbps", "intensity", "overlap", "virtual_s", "cpu_s",
               "wall_s", "par_eff", "inter_util"});
  for (const BenchSuiteResult& r : suites) {
    t.add_row({r.suite, r.backend, cell_pct(r.mfu), cell_f2(r.achieved_gbps),
               cell_f2(r.arith_intensity), cell_pct(r.overlap_ratio),
               format_seconds(r.virtual_step_s), format_seconds(r.cpu_s),
               format_seconds(r.wall_s), cell_pct(r.parallel_efficiency),
               r.inter_link_bytes > 0 ? cell_pct(r.inter_bw_util) : "-"});
  }
  std::ostringstream os;
  os << "fpdt bench — schema " << schema << ", rev " << git_rev << ", threads " << threads
     << (avx2 ? ", avx2" : ", no-avx2") << "\n";
  t.print(os);
  return os.str();
}

BenchReport run_bench(const BenchOptions& opt, std::string* report_path) {
  BenchReport rep;
  rep.git_rev = git_rev();
  rep.world = 2;
  rep.threads = parallel_workers();
  rep.avx2 = kernels::simd_uses_avx2();

  const std::vector<std::string> backends =
      opt.all_backends ? kernels::available() : std::vector<std::string>{kernels::active_name()};
  for (const std::string& kb : backends) {
    ProfileOptions a = attn_suite(opt.seed, opt.steps);
    a.cfg.kernel_backend = kb;
    rep.suites.push_back(run_suite("attn", a));
    ProfileOptions g = gemm_suite(opt.seed, opt.steps);
    g.cfg.kernel_backend = kb;
    rep.suites.push_back(run_suite("gemm", g));
    ProfileOptions ov = overlap_suite(opt.seed, opt.steps);
    ov.cfg.kernel_backend = kb;
    rep.suites.push_back(run_suite("overlap", ov));
    ProfileOptions tp = topo_suite(opt.seed, opt.steps);
    tp.cfg.kernel_backend = kb;
    rep.suites.push_back(run_suite("topo", tp));
  }
  // One tune-warm row on the process-default backend: the suite measures
  // cache replay, which is backend-independent.
  rep.suites.push_back(tune_warm_suite(opt.seed));

  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
    char name[32];
    std::snprintf(name, sizeof(name), "BENCH_%04d.json", next_snapshot_number(opt.out_dir));
    const std::string path = (std::filesystem::path(opt.out_dir) / name).string();
    std::ofstream out(path);
    out << rep.json() << "\n";
    FPDT_CHECK(out.good()) << " cannot write bench snapshot to " << path;
    if (report_path != nullptr) *report_path = path;
  }
  return rep;
}

// ---- Shared analytic accounting -------------------------------------------

ModelWork analytic_model_work(const nn::ModelConfig& cfg, std::int64_t s, bool causal) {
  using namespace fpdt::kernels;
  const std::int64_t d = cfg.d_model;
  const std::int64_t f = cfg.ffn_hidden;
  const std::int64_t kv_dim = cfg.n_kv_head * cfg.head_dim();
  const bool llama = cfg.arch == nn::Arch::kLlama;

  // Per-call costs stay within int64 (the largest single op here, the 70B
  // LM head at 4M tokens, is ~1e16 FLOPs); the model total can exceed it,
  // so accumulation is double.
  ModelWork w;
  const auto add = [&w](OpWork op, double times = 1.0) {
    w.flops += times * static_cast<double>(op.flops);
    w.bytes += times * static_cast<double>(op.bytes);
  };

  // One transformer block, forward. Backward gemms charge 2x forward (dgrad
  // dX = dY·W plus wgrad dW = Xᵀ·dY, each the forward's FLOP count).
  const AttnDims dm{s, s, cfg.n_head, cfg.n_kv_head, cfg.head_dim(),
                    cfg.n_head / cfg.n_kv_head};
  const double L = static_cast<double>(cfg.n_layer);

  // Norms: 2 per block, fwd + bwd.
  if (llama) {
    add(rmsnorm_forward_cost(s, d), 2.0 * L);
    add(rmsnorm_backward_cost(s, d), 2.0 * L);
  } else {
    add(layernorm_forward_cost(s, d), 2.0 * L);
    add(layernorm_backward_cost(s, d), 2.0 * L);
  }
  // QKV + output projections (fwd 1x, bwd 2x).
  add(gemm_nt_cost(s, d, d + 2 * kv_dim), 3.0 * L);
  add(gemm_nt_cost(s, d, d), 3.0 * L);
  // Attention core.
  add(attn_forward_cost(dm, causal, 0, 0), L);
  add(online_attn_backward_step_cost(dm, causal, 0, 0), L);
  // FFN: GPT d->f, gelu, f->d; Llama gate+up d->2f, silu*mul, down f->d.
  if (llama) {
    add(gemm_nt_cost(s, d, 2 * f), 3.0 * L);
    add(gemm_nt_cost(s, f, d), 3.0 * L);
    add(activation_forward_cost(s * f, kSiluFwdFlopsPerElem), L);
    add(activation_backward_cost(s * f, kSiluBwdFlopsPerElem), L);
  } else {
    add(gemm_nt_cost(s, d, f), 3.0 * L);
    add(gemm_nt_cost(s, f, d), 3.0 * L);
    add(activation_forward_cost(s * f, kGeluFwdFlopsPerElem), L);
    add(activation_backward_cost(s * f, kGeluBwdFlopsPerElem), L);
  }
  // Final norm + untied LM head (embedding lookups are copies, not FLOPs).
  if (llama) {
    add(rmsnorm_forward_cost(s, d));
    add(rmsnorm_backward_cost(s, d));
  } else {
    add(layernorm_forward_cost(s, d));
    add(layernorm_backward_cost(s, d));
  }
  add(gemm_nt_cost(s, d, cfg.vocab), 3.0);
  return w;
}

bool accounting_consistent(const nn::ModelConfig& cfg, std::int64_t s, double* ratio) {
  const double per_op = analytic_model_work(cfg, s, /*causal=*/false).flops;
  const double convention = cfg.train_flops_per_token(s) * static_cast<double>(s);
  const double r = convention > 0.0 ? per_op / convention : 0.0;
  if (ratio != nullptr) *ratio = r;
  return r > 0.85 && r < 1.30;
}

}  // namespace fpdt::obs
