// Profiler bench: runs `obs::run_profile` over the executed FPDT step and
// the Ulysses baseline, prints the per-step stats, and writes the full
// profile document to BENCH_profile.json (plus BENCH_profile_trace.json,
// loadable in Perfetto). Exits non-zero when a measured invariant breaks:
// overlap ratio must be a valid fraction, virtual throughput positive, and
// the per-step stats must agree with their own timeline decomposition.
#include <cmath>
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

using namespace fpdt;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::cerr << "VIOLATION: " << what << "\n";
  return ok;
}

}  // namespace

int main() {
  bool ok = true;

  obs::ProfileOptions opt;
  opt.steps = 2;
  opt.world = 2;
  opt.cfg.chunks_per_rank = 4;
  opt.chunk_tokens = 64;
  opt.trace_path = "BENCH_profile_trace.json";
  opt.metrics_path = "BENCH_profile.json";
  const obs::ProfileResult fpdt_res = obs::run_profile(opt);

  std::cout << "profiled FPDT: " << opt.steps << " steps, " << opt.world << " GPUs, "
            << format_token_count(fpdt_res.tokens_per_step) << " tokens/step\n";
  TextTable t({"step", "virtual", "tok/s", "overlap", "exposed", "hbm peak", "a2a bytes"});
  for (const obs::StepStats& s : fpdt_res.steps) {
    t.add_row({std::to_string(s.step), format_seconds(s.virtual_step_s),
               cell_f2(s.tokens_per_s), cell_pct(s.overlap_ratio),
               format_seconds(s.exposed_transfer_s), format_bytes(s.hbm_peak_bytes),
               format_bytes(s.all2all_bytes)});
    ok &= check(std::isfinite(s.overlap_ratio) && s.overlap_ratio >= 0.0 &&
                    s.overlap_ratio <= 1.0,
                "overlap ratio is a fraction");
    ok &= check(s.tokens_per_s > 0.0, "virtual throughput positive");
    ok &= check(s.exposed_transfer_s >= 0.0, "exposed transfer non-negative");
    const double transfer = s.h2d_busy_s + s.d2h_busy_s;
    ok &= check(std::abs(s.hidden_transfer_s + s.exposed_transfer_s - transfer) <
                    1e-9 * std::max(1.0, transfer),
                "hidden + exposed == transfer busy");
    ok &= check(s.hbm_peak_bytes > 0, "HBM peak recorded");
    ok &= check(s.all2all_bytes > 0, "All2All traffic recorded");
  }
  t.print(std::cout);

  // The baseline profile exercises the non-FPDT code path (no chunk
  // events, monolithic loss head) — it must still produce a sane document.
  obs::ProfileOptions base = opt;
  base.strategy = "ulysses";
  base.trace_path.clear();
  base.metrics_path.clear();
  const obs::ProfileResult ulysses_res = obs::run_profile(base);
  ok &= check(ulysses_res.steps.size() == static_cast<std::size_t>(base.steps),
              "ulysses profile completes");
  std::cout << "ulysses comparison: loss " << cell_f2(ulysses_res.final_loss) << " vs fpdt "
            << cell_f2(fpdt_res.final_loss) << "\n";

  std::cout << "wrote BENCH_profile.json and BENCH_profile_trace.json\n";
  if (!ok) {
    std::cerr << "bench_profile: invariant violations detected\n";
    return 1;
  }
  return 0;
}
