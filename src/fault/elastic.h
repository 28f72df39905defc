// Elastic world membership: survive rank loss, node churn and network
// partitions with coordinated re-sharding.
//
// ElasticWorldManager owns the group's membership state: a monotonic epoch
// counter (bumped on every membership or fabric event), a Watchdog tracking
// per-rank heartbeats in the *initial* world's global numbering, and the
// shrink/grow protocol that turns a typed collective failure
// (comm::CommError) into a resumed run at a different world size.
//
// On rank loss (CommErrc::kRankLost from a collective):
//   1. quiesce — discard every in-flight stream task; a poisoned pipeline
//      must not retire work into the state we are about to rebuild;
//   2. evict — mark the victim dead in the watchdog; the active membership
//      is always the lowest-numbered healthy global ranks;
//   3. plan — pick the largest world P' <= survivors satisfying the Ulysses
//      head-divisibility predicates (n_head % P', n_kv_head % P') and the
//      rank-ordinal sequence predicate (tune::SearchSpace::divisible), with
//      chunks-per-rank re-planned by tune::Planner at P' (best unpruned
//      candidate, modeled-fits-first);
//   4. reshard — re-partition the ZeRO moment shards of the last coordinated
//      snapshot P -> P' (zero/reshard.h, FNV-1a manifest), after the
//      survivors agree on the manifest digest over a comm::GroupView
//      restricted to healthy ranks; the re-sharded snapshot is written both
//      over the live checkpoint and to `<ckpt>.reshard`, the twin's restore
//      point;
//   5. resume — the trainer re-applies the WorldPlan and restores, replaying
//      the failed step at P'. Because restore is bitwise and the re-split is
//      a pure copy, every loss from the reshard step on is bitwise identical
//      to a fresh P'-world run restored from `<ckpt>.reshard`.
//
// Network partitions (kPartitioned) quiesce, bump the epoch and replay at
// the same world — the injector's step-pinned rules fire once, so the
// fabric "heals" on replay, which is exactly the transient-at-step-scope
// semantics a partition has. Slow ranks (rankslow site) withhold a
// heartbeat; the watchdog's verdict distinguishes slow from dead and the
// group tolerates them without a membership change. Scheduled rejoins grow
// the world back through the same plan/reshard path.
//
// Every decision is a pure function of (scenario seed, step), all membership
// actions run on the driver thread in program order, and the transcript
// records each one — two runs of the same scenario produce byte-identical
// transcripts (tests/test_elastic.cpp asserts this).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fault/resilient_trainer.h"
#include "fault/watchdog.h"

namespace fpdt::fault {

// The outcome of planning a membership change: the new world size and the
// chunks-per-rank the planner picked for it. chunk_tokens follows from
// holding s_global constant: s_global / (world * chunks_per_rank).
struct WorldPlan {
  int world = 0;
  std::int64_t chunks_per_rank = 0;
  // Re-planned 2D grid for the new world (parallel/grid2d.h): the largest
  // ranks-per-node / head-degree no bigger than the operator's originals
  // that still satisfy the grid divisibility rules at `world`. 0 = flat/1D,
  // also when the operator never asked for a grid.
  int ranks_per_node = 0;
  int head_degree = 0;
  std::string label;  // planner candidate label, for the transcript
};

class ElasticWorldManager {
 public:
  // `rejoins`: scheduled node churn — after completing step S, `ranks`
  // previously-dead ranks rejoin (step -> count). Parsed from the scenario
  // by run_elastic; the injector never sees rejoin clauses.
  ElasticWorldManager(ResilientTrainer& rt, std::map<std::int64_t, int> rejoins = {});

  // Membership epoch: starts at 1, bumped on every rank loss, partition or
  // accepted rejoin. Mirrored to the `elastic.epoch` gauge.
  int epoch() const { return epoch_; }

  Watchdog& watchdog() { return watchdog_; }
  const std::vector<std::string>& transcript() const { return transcript_; }

  // Handles a fatal collective result naming a lost rank: quiesce, evict,
  // plan, reshard. Returns the plan the trainer must apply (re-applies the
  // config and restores from the re-sharded checkpoint). Throws FpdtError
  // when no valid smaller world exists.
  WorldPlan on_rank_lost(const comm::CommResult& res);

  // Handles a partitioned fabric: quiesce + epoch bump; the trainer then
  // replays the step at the same world.
  void on_partition(const comm::CommResult& res);

  // Post-step hook: heartbeats the active members (a rank drawn by the
  // rankslow site withholds its heartbeat and is judged by the watchdog),
  // then processes scheduled rejoins. Returns a WorldPlan when a rejoin
  // grows the world (checkpoint already re-sharded); the trainer applies it
  // exactly like a shrink plan.
  std::optional<WorldPlan> on_step_complete(std::int64_t step);

  // Last reshard, for the bitwise twin (run_elastic): the step the
  // re-sharded snapshot points at, and the world/chunks it was written for.
  std::int64_t reshard_step() const { return reshard_step_; }
  int reshard_world() const { return reshard_world_; }
  std::int64_t reshard_chunks() const { return reshard_chunks_; }

  // Total wall-clock seconds spent in quiesce+plan+reshard across all
  // membership events (also observed into the elastic.recovery_s histogram).
  double recovery_seconds() const { return recovery_seconds_; }

 private:
  // Discards every pending task on every stream of the current env.
  void quiesce();
  // Largest valid world <= max_world with planner-chosen chunks_per_rank.
  WorldPlan plan_world(int max_world) const;
  // Re-partitions the coordinated snapshot to plan.world and writes the
  // `.reshard` twin restore point. `exclude_ordinal` drops the victim from
  // the digest-agreement group (-1 = all current ordinals participate).
  void reshard_to(const WorldPlan& plan, int exclude_ordinal);
  void note(std::string line);
  // Active members are the lowest world() healthy globals; maps a current-
  // world ordinal to its global rank.
  int global_of_ordinal(int ordinal) const;

  ResilientTrainer& rt_;
  Watchdog watchdog_;
  const int initial_world_;
  int epoch_ = 1;
  std::map<std::int64_t, int> rejoins_;
  std::vector<std::string> transcript_;
  std::int64_t reshard_step_ = -1;
  int reshard_world_ = 0;
  std::int64_t reshard_chunks_ = 0;
  double recovery_seconds_ = 0.0;
};

// ---- fpdt elastic ----------------------------------------------------------
// A scripted churn run plus its bitwise twin. The scenario is the injector
// fault-spec DSL extended with `rejoin:step=S[,ranks=N]` clauses (handled
// here, stripped before the injector sees the spec), e.g.
//   "ranklost:step=1,rank=1;rejoin:step=3,ranks=1"
// The twin check: when a reshard happened, a fresh trainer at the reshard
// world restored from `<ckpt>.reshard` replays steps reshard_step..steps and
// every loss must match the elastic run bitwise. Without a reshard
// (netpart/rankslow only), a fault-free clean twin's final loss must match
// bitwise, as in run_chaos.

struct ElasticOptions {
  std::string scenario;
  int steps = 6;
  int world = 4;
  std::int64_t chunk_tokens = 32;
  std::uint64_t seed = 1234;
  std::int64_t hbm_capacity_bytes = -1;
  // 2 chunks per rank under ZeRO-3 by default. With a grid (ranks_per_node,
  // head_degree), rank loss re-plans it alongside the world (WorldPlan).
  core::FpdtConfig cfg = [] {
    core::FpdtConfig c;
    c.chunks_per_rank = 2;
    c.zero_stage = 3;
    return c;
  }();
  // 8 heads so the world can shrink across {8, 4, 2, 1}.
  nn::ModelConfig model = nn::tiny_gpt(64, 2, 8, 96);
  std::string checkpoint_path = "fpdt_elastic.ckpt";
  bool verify_twin = true;
  bool keep_checkpoint = false;
};

struct ElasticResult {
  std::vector<double> losses;       // elastic run, one per step
  std::vector<double> twin_losses;  // reshard twin: steps reshard_step..steps;
                                    // clean twin: all steps
  std::vector<std::string> transcript;
  FaultStats stats;
  std::int64_t steps_completed = 0;
  int initial_world = 0;
  int final_world = 0;
  int final_epoch = 1;
  std::int64_t reshard_step = -1;
  int reshard_world = 0;
  std::int64_t reshard_chunks = 0;
  double recovery_wall_s = 0.0;
  bool twin_bitwise_match = false;

  bool resharded() const { return reshard_step >= 0; }
  bool survived(int steps) const { return steps_completed == steps; }
  // Human-readable + machine-greppable summary ("elastic: ..." lines).
  std::string report(int requested_steps) const;
};

ElasticResult run_elastic(const ElasticOptions& opt);

}  // namespace fpdt::fault
