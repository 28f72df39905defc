// ResilientTrainer — the recovery ladder around an FPDT training step.
//
// Wraps model + optimizer + data stream + FpdtTrainer and survives the
// faults the injector (fault/fault_injector.h) can throw at a step:
//
//   transient transfer/collective failures   handled below this layer, by
//       retry-with-backoff (fault/retry.h) and the prefetcher's sync
//       fallback — invisible here and to training math;
//   OutOfMemoryError mid-step                chunk-count doubling via the
//       chunk schedule (validated with ChunkSchedule::check_legal) and a
//       step retry on a rebuilt trainer;
//   anything else (FpdtError)                restore-and-replay from the
//       last TrainingState snapshot; the replayed steps are bitwise
//       identical to an uninterrupted run because every piece of state —
//       params, Adam moments, the corpus RNG stream, the step counter —
//       was captured.
//
// After each successful step the end-of-step watchdog runs, the injector's
// recovered counter is reconciled, and (optionally) a crash-safe
// TrainingState snapshot is written.
//
// With options().elastic set, typed collective failures (comm::CommError)
// route to the ElasticWorldManager (fault/elastic.h): rank loss shrinks the
// world and re-shards; partitions quiesce and replay; scheduled rejoins
// grow the world back.
//
// run_chaos() is the `fpdt chaos` driver: a faulted run followed by a
// fault-free twin with identical seeds, verifying the final loss matches
// bitwise (transient faults must be invisible to training math; an OOM
// chunk-doubling legitimately changes the reduction order, and a rank-loss
// reshard legitimately changes the world size — both are reported and
// verified approximately instead; `fpdt elastic` is the bitwise check for
// the latter, against a twin at the *same* reduced world).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "fault/fault_injector.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "parallel/zero/sharded_optimizer.h"

namespace fpdt::fault {

class ElasticWorldManager;
struct WorldPlan;

struct ResilientOptions {
  int world = 2;
  core::FpdtConfig cfg;
  std::int64_t hbm_capacity_bytes = -1;
  std::int64_t chunk_tokens = 64;
  double lr = 1e-3;
  std::uint64_t model_seed = 1234;
  std::uint64_t data_seed = 7;
  nn::ModelConfig model = nn::tiny_gpt();
  // Empty = no snapshots (an unrecoverable fault is then fatal).
  std::string checkpoint_path;
  int checkpoint_every = 1;
  // Attempts per train_step() call across OOM-degrade and restore-replay.
  int max_step_retries = 4;
  // Elastic membership (fault/elastic.h): rank loss shrinks the world and
  // re-shards instead of degrading to same-world restore-and-replay.
  bool elastic = false;
  // Scheduled rejoins (step -> rank count), forwarded to the elastic layer.
  std::map<std::int64_t, int> rejoin_at;
  // Non-empty: restore this snapshot right after construction — how the
  // elastic twin starts from a `.reshard` restore point.
  std::string restore_from;
};

struct StepOutcome {
  double loss = 0.0;
  int attempts = 1;
  bool oom_degraded = false;  // chunk count doubled during this step
  bool restored = false;      // restore-and-replay happened
  bool resharded = false;     // elastic membership change during this step
  int world = 0;              // world size after the step completed
};

class ResilientTrainer {
 public:
  explicit ResilientTrainer(const ResilientOptions& opt);
  ~ResilientTrainer();  // out of line: elastic_ is incomplete here

  // Runs one resilient optimizer step (sample -> forward/backward -> Adam
  // -> watchdog -> snapshot). Throws only when the recovery ladder is
  // exhausted.
  StepOutcome train_step();

  std::int64_t step() const { return step_; }
  std::int64_t tokens_per_step() const { return s_global_; }
  int world() const { return opt_.world; }
  nn::Model& model() { return *model_; }
  core::FpdtTrainer& trainer() { return *trainer_; }
  const core::FpdtConfig& cfg() const { return opt_.cfg; }
  const ResilientOptions& options() const { return opt_; }

  // The membership manager when options().elastic, else nullptr.
  ElasticWorldManager* elastic() { return elastic_.get(); }

  // The optimizer at cfg.zero_stage. Stage 0 keeps replicated moments in
  // optimizer().reference() (unsharded snapshots); stages 1-3 keep per-rank
  // moment shards, and snapshots switch to the sharded envelope (FPDTZR01)
  // so they round-trip bitwise.
  zero::ShardedOptimizer& optimizer() { return optimizer_; }

  // Full TrainingState snapshot / restore (params + Adam moments + corpus
  // stream + step counter). Restore rebuilds the trainer from scratch.
  void save_snapshot(const std::string& path);
  void restore_snapshot(const std::string& path);

 private:
  std::unique_ptr<core::FpdtTrainer> build_trainer() const;
  // Replaces the trainer (new chunking or world) and re-binds the optimizer
  // to its env; optimizer state carries over.
  void rebuild_trainer();
  void double_chunks_or_rethrow();
  // Commits a membership change: new world + chunks (s_global held
  // constant, so chunk_tokens is re-derived) and a restore from the
  // re-sharded checkpoint.
  void apply_world_plan(const WorldPlan& plan);

  ResilientOptions opt_;
  std::int64_t s_global_ = 0;
  std::unique_ptr<nn::Model> model_;
  std::unique_ptr<core::FpdtTrainer> trainer_;
  zero::ShardedOptimizer optimizer_;  // bound to trainer_'s env
  data::SyntheticCorpus corpus_;
  std::unique_ptr<ElasticWorldManager> elastic_;
  std::int64_t step_ = 0;
};

// ---- fpdt chaos ------------------------------------------------------------

struct ChaosOptions {
  std::string spec;  // fault spec; empty = injector left as-is (disabled)
  int steps = 4;
  int world = 2;
  std::int64_t chunk_tokens = 64;
  std::uint64_t seed = 1234;
  std::int64_t hbm_capacity_bytes = -1;
  // Trainer config of both runs (chunks, ZeRO stage, ...).
  core::FpdtConfig cfg;
  std::string checkpoint_path = "fpdt_chaos.ckpt";
  bool verify_against_clean = true;
  bool keep_checkpoint = false;
};

struct ChaosResult {
  std::vector<double> losses;        // faulted run, one per step
  std::vector<double> clean_losses;  // fault-free twin (verify_against_clean)
  FaultStats stats;
  std::int64_t steps_completed = 0;
  bool math_degraded = false;   // OOM doubling changed the reduction order
  bool resharded = false;       // rank loss shrank the world mid-run
  bool any_restored = false;
  bool loss_bitwise_match = false;  // final faulted loss == final clean loss
  double loss_abs_diff = 0.0;

  bool survived(int steps) const { return steps_completed == steps; }
  // Human-readable + machine-greppable summary ("chaos: ..." lines).
  std::string report(int requested_steps) const;
};

ChaosResult run_chaos(const ChaosOptions& opt);

}  // namespace fpdt::fault
