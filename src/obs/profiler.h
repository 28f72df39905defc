// Step profiler — turns one executed training step into StepStats: the
// numbers the paper reports (tokens/s, per-phase latency, hidden vs exposed
// transfer time, HBM peak) measured on the emulated runtime's virtual
// clock, plus the glue that drives `fpdt profile`.
//
// Layering: obs/trace.h and obs/metrics.h depend only on common/ so every
// layer can be instrumented; this header is the opposite end — it *reads*
// the runtime (core::FpdtEnv, the trainers) and therefore lives in its own
// library (fpdt_profile) above fpdt_core and fpdt_parallel.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fpdt_config.h"
#include "core/fpdt_env.h"
#include "nn/model_config.h"
#include "obs/workmeter.h"
#include "runtime/stream.h"
#include "sim/hardware.h"
#include "topo/topology.h"

namespace fpdt::obs {

// Coarse phase for a compute-stream span label (the executors' compute
// regions and the process group's collectives): "proj.3" /
// "bwd.qkv_proj.1" -> "qkv", "a2a heads_to_seq" -> "all2all",
// "all_gather" / "reduce_scatter" / "all_reduce" / "ring_shift" -> "comm",
// "attn.1.0" -> "attention", "post.0" / "bwd.ffn.2" -> "ffn", "fetch.k3" ->
// "fetch", "offload.v1" -> "offload", plus the trainer-level "embed" /
// "loss" / "optimizer" spans. Unknown labels -> "other".
std::string phase_of(const std::string& label);

// One training step's worth of measurements, all on the virtual clock.
struct StepStats {
  int step = 0;
  std::int64_t tokens = 0;
  double loss = 0.0;
  double virtual_step_s = 0.0;  // rank-0 stream makespan
  double tokens_per_s = 0.0;    // tokens / virtual_step_s (0 when degenerate)
  double wall_s = 0.0;          // host wall-clock for the step (steady_clock).
                                // The virtual clock prices the *emulated*
                                // accelerator and is invariant to how fast
                                // the host math runs; wall_s/cpu_s are what
                                // the kernel backends actually change.
  double cpu_s = 0.0;           // host process-CPU for the step (std::clock,
                                // summed over threads). Immune to other
                                // processes on the machine, so this is what
                                // ci/kernel_smoke.sh gates its backend
                                // speedup ratio on; wall_s is reported too
                                // but loaded CI boxes make it noisy.
  double compute_busy_s = 0.0;
  double h2d_busy_s = 0.0;
  double d2h_busy_s = 0.0;
  double hidden_transfer_s = 0.0;
  double exposed_transfer_s = 0.0;
  double overlap_ratio = 0.0;
  std::int64_t h2d_bytes = 0;       // rank-0 traffic during the step
  std::int64_t d2h_bytes = 0;
  std::int64_t all2all_bytes = 0;   // whole-group All2All traffic
  // Per-link traffic of the step under a topology-aware group
  // (comm::HierarchicalProcessGroup); all zero under the seed's flat fabric.
  std::int64_t intra_link_bytes = 0;
  std::int64_t inter_link_bytes = 0;
  double inter_bw_util = 0.0;       // inter-link busy seconds / virtual_step_s
  std::int64_t hbm_peak_bytes = 0;  // max over ranks
  std::map<std::string, double> phase_s;  // phase -> rank-0 compute seconds

  // Work accounting (obs/workmeter.h deltas over the step; whole-group
  // totals — every rank charges the same process-wide meter). Zero when
  // metering was off for the step.
  std::int64_t flops = 0;     // analytic kernel FLOPs
  std::int64_t op_bytes = 0;  // analytic ideal kernel bytes
  // Roofline on the virtual clock, per device: flops / world is what one
  // emulated GPU did in virtual_step_s. Backend-invariant by construction
  // (both numerator and denominator are analytic/deterministic).
  double mfu = 0.0;              // (flops/world) / (virtual_step_s · peak_flops)
  double achieved_gbps = 0.0;    // (op_bytes/world) / virtual_step_s / 1e9
  double arith_intensity = 0.0;  // flops / op_bytes (FLOP/B)
  // Host-side parallel efficiency: cpu_s / (wall_s · thread-pool workers).
  // 1.0 = every worker fully busy for the whole step; set_host_times fills
  // it together with wall_s/cpu_s.
  double parallel_efficiency = 0.0;
  // Phase breakdown from the FPDT_TRACE_SCOPE(kCatPhase, ...) spans (embed /
  // blocks.forward / loss_head / ... vocabulary, distinct from phase_s's
  // stream-span classification). phase_mfu is the phase's *contribution* to
  // the step MFU (shares sum to the step total), not a per-phase roofline.
  std::map<std::string, std::int64_t> phase_flops;
  std::map<std::string, double> phase_mfu;

  void set_host_times(double wall, double cpu);

  std::string json() const;
};

// Brackets one training step: begin_step() opens a fresh measurement window
// (stream timelines, HBM peaks, transfer/comm baselines); end_step()
// synchronizes, builds the rank-0 TimelineReport, classifies compute spans
// into phases and folds everything into StepStats and the global
// MetricsRegistry. The overlap_ratio in StepStats *is*
// TimelineReport::overlap_ratio() — one source of truth.
class StepProfiler {
 public:
  // `hw` is the roofline denominator (peak FLOPs / HBM bandwidth); defaults
  // to the paper's A100-80G testbed, matching sim::stream_rates pricing.
  explicit StepProfiler(core::FpdtEnv& env, sim::HardwareSpec hw = sim::a100_80g_node());

  void begin_step();
  StepStats end_step(int step, std::int64_t tokens, double loss);

 private:
  core::FpdtEnv* env_;
  sim::HardwareSpec hw_;
  std::int64_t h2d_base_ = 0;
  std::int64_t d2h_base_ = 0;
  std::int64_t a2a_base_ = 0;
  topo::LinkStats link_base_;
  WorkSnapshot work_base_;
};

// ---- fpdt profile ----------------------------------------------------------

struct ProfileOptions {
  std::string strategy = "fpdt";  // fpdt | ulysses | megatron-sp | ring
  int steps = 2;
  int world = 2;
  std::int64_t chunk_tokens = 64;
  std::uint64_t seed = 1234;
  bool trace = true;
  std::string trace_path = "trace.json";
  std::string metrics_path = "metrics.json";

  // Model under profile. Defaults to the tiny GPT every smoke/bench uses;
  // the tuner (src/tune/) passes its request's model through here.
  nn::ModelConfig model = nn::tiny_gpt(64, 2, 4, 96);

  // Trainer config before the strategy's preset (profile_config). Its
  // chunks_per_rank sizes the step for every strategy (s_global = world ·
  // chunks_per_rank · chunk_tokens); zero_stage picks the ZeRO
  // ShardedOptimizer's stage; kernel_backend covers the whole run, model
  // init too.
  core::FpdtConfig cfg;

  // Per-device HBM capacity in bytes; < 0 = unlimited (the default).
  std::int64_t hbm_capacity_bytes = -1;

  // Hardware preset pricing the run: roofline denominators and the stream
  // rates fed into the emulated devices (`--hw`, sim::hw_preset).
  sim::HardwareSpec hw = sim::a100_80g_node();
};

// The config run_profile trains `opt` under: opt.cfg with the strategy's
// preset applied. Throws FpdtError on an unknown strategy.
core::FpdtConfig profile_config(const ProfileOptions& opt);

struct ProfileResult {
  std::vector<StepStats> steps;
  double final_loss = 0.0;
  std::int64_t tokens_per_step = 0;

  // Full profile document: options echo, per-step stats, metrics registry
  // snapshot (what metrics.json holds).
  std::string json(const ProfileOptions& opt) const;
};

// Runs `opt.steps` training steps of a tiny model under the chosen strategy
// with tracing on, writes opt.trace_path (Chrome trace JSON) and
// opt.metrics_path, and returns the per-step stats. The tracer is restored
// to disabled afterwards. Empty paths skip the corresponding file.
ProfileResult run_profile(const ProfileOptions& opt);

}  // namespace fpdt::obs
