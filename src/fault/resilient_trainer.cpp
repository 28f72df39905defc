#include "fault/resilient_trainer.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "comm/process_group.h"
#include "common/check.h"
#include "common/logging.h"
#include "core/chunk_schedule.h"
#include "fault/elastic.h"
#include "fault/watchdog.h"
#include "nn/checkpoint_io.h"
#include "nn/model_config.h"
#include "obs/metrics.h"

namespace fpdt::fault {

ResilientTrainer::ResilientTrainer(const ResilientOptions& opt)
    : opt_(opt),
      s_global_(static_cast<std::int64_t>(opt.world) * opt.cfg.chunks_per_rank *
                opt.chunk_tokens),
      model_(std::make_unique<nn::Model>(opt.model, opt.model_seed)),
      trainer_(build_trainer()),
      optimizer_(trainer_->env(), zero::ZeroConfig{opt.cfg.zero_stage}, opt.lr),
      corpus_(opt.model.vocab, opt.data_seed) {
  FPDT_CHECK_GE(opt_.max_step_retries, 1) << " resilient step retry budget";
  // The elastic twin starts from a frozen reshard restore point rather than
  // fresh initialization.
  if (!opt_.restore_from.empty()) restore_snapshot(opt_.restore_from);
  if (opt_.elastic) elastic_ = std::make_unique<ElasticWorldManager>(*this, opt_.rejoin_at);
  // Seed snapshot: restore-and-replay must work even when the very first
  // step dies.
  if (!opt_.checkpoint_path.empty()) save_snapshot(opt_.checkpoint_path);
}

ResilientTrainer::~ResilientTrainer() = default;

std::unique_ptr<core::FpdtTrainer> ResilientTrainer::build_trainer() const {
  return std::make_unique<core::FpdtTrainer>(*model_, opt_.world, opt_.cfg,
                                             opt_.hbm_capacity_bytes);
}

void ResilientTrainer::rebuild_trainer() {
  trainer_ = build_trainer();
  optimizer_.rebind(trainer_->env());
}

void ResilientTrainer::double_chunks_or_rethrow() {
  const std::int64_t u2 = opt_.cfg.chunks_per_rank * 2;
  const std::int64_t s_local = s_global_ / opt_.world;
  if (s_local % u2 != 0) {
    throw FpdtError("OOM at chunks_per_rank " + std::to_string(opt_.cfg.chunks_per_rank) +
                    " and the local sequence (" + std::to_string(s_local) +
                    " tokens) cannot be split into " + std::to_string(u2) + " chunks");
  }
  // The doubled schedule must still be legal before committing to it.
  core::ChunkSchedule::forward(u2, opt_.cfg.offload, opt_.cfg.double_buffer).check_legal();
  core::ChunkSchedule::backward(u2, opt_.cfg.offload, opt_.cfg.double_buffer).check_legal();
  FPDT_LOG_WARN << "OOM: degrading chunks_per_rank " << opt_.cfg.chunks_per_rank << " -> " << u2
                << " and retrying the step";
  opt_.cfg.chunks_per_rank = u2;
}

void ResilientTrainer::apply_world_plan(const WorldPlan& plan) {
  FPDT_CHECK_GE(plan.world, 1) << " elastic world plan";
  FPDT_CHECK_EQ(s_global_ % (plan.world * plan.chunks_per_rank), 0)
      << " elastic plan must preserve s_global divisibility";
  opt_.world = plan.world;
  opt_.cfg.chunks_per_rank = plan.chunks_per_rank;
  // Re-planned grid shape rides along (0/0 when the run never had one);
  // the rebuilt env routes collectives over the new topology.
  opt_.cfg.ranks_per_node = plan.ranks_per_node;
  opt_.cfg.head_degree = plan.head_degree;
  opt_.chunk_tokens = s_global_ / (plan.world * plan.chunks_per_rank);
  // The checkpoint was re-sharded to plan.world before this call; restoring
  // rebuilds the trainer at the new world and installs the re-split shards.
  restore_snapshot(opt_.checkpoint_path);
}

StepOutcome ResilientTrainer::train_step() {
  StepOutcome out;
  FaultInjector& inj = FaultInjector::instance();
  if (inj.enabled()) inj.begin_step(step_);
  std::vector<std::int32_t> tokens = corpus_.sample(s_global_ + 1);

  for (int attempt = 1; attempt <= opt_.max_step_retries; ++attempt) {
    out.attempts = attempt;
    try {
      // A retried attempt may have left partial gradient accumulation
      // behind; zero is also the clean-path state, so this never perturbs
      // an undisturbed run.
      model_->zero_grads();
      const double loss = trainer_->train_step_grads(tokens);
      if (faults_enabled() && inj.should_fail(Site::kCrash, -1)) {
        throw FpdtError("injected crash: step " + std::to_string(step_) +
                        " lost before the optimizer update");
      }
      optimizer_.step([&](const nn::ParamVisitor& v) { model_->visit_params(v); });
      check_step_quiescent(trainer_->env());
      trainer_->env().synchronize_streams();
      out.loss = loss;
      ++step_;
      if (inj.enabled()) inj.reconcile_step();
      if (!opt_.checkpoint_path.empty() && step_ % opt_.checkpoint_every == 0) {
        save_snapshot(opt_.checkpoint_path);
      }
      if (elastic_ != nullptr) {
        // Heartbeats + scheduled rejoins; a rejoin that grows the world
        // hands back a plan with the checkpoint already re-sharded.
        const std::optional<WorldPlan> grow = elastic_->on_step_complete(step_);
        if (grow.has_value()) {
          apply_world_plan(*grow);
          out.resharded = true;
        }
      }
      out.world = opt_.world;
      return out;
    } catch (const OutOfMemoryError& e) {
      if (attempt >= opt_.max_step_retries) throw;
      FPDT_LOG_WARN << "step " << step_ << " hit OOM (" << e.what() << ")";
      double_chunks_or_rethrow();
      rebuild_trainer();
      out.oom_degraded = true;
      if (inj.enabled()) inj.note_degraded("chunk_double");
      // Same tokens, finer chunk schedule.
    } catch (const comm::CommError& e) {
      if (attempt >= opt_.max_step_retries || opt_.checkpoint_path.empty()) throw;
      const comm::CommResult& res = e.result();
      if (elastic_ != nullptr && res.code == comm::CommErrc::kRankLost) {
        FPDT_LOG_WARN << "step " << step_ << " lost rank " << res.rank << " ("
                      << res.detail << "); re-sharding to a smaller world";
        apply_world_plan(elastic_->on_rank_lost(res));
        out.resharded = true;
      } else {
        // A partition heals at step scope (quiesce + replay, same world);
        // without the elastic layer every CommError degrades to the generic
        // restore-and-replay rung.
        if (elastic_ != nullptr && res.code == comm::CommErrc::kPartitioned) {
          elastic_->on_partition(res);
        }
        FPDT_LOG_WARN << "step " << step_ << " collective failed (" << e.what()
                      << "); restoring last snapshot and replaying";
        restore_snapshot(opt_.checkpoint_path);
      }
      out.restored = true;
      tokens = corpus_.sample(s_global_ + 1);
      if (inj.enabled()) inj.begin_step(step_);
    } catch (const FpdtError& e) {
      if (attempt >= opt_.max_step_retries || opt_.checkpoint_path.empty()) throw;
      FPDT_LOG_WARN << "step " << step_ << " failed (" << e.what()
                    << "); restoring last snapshot and replaying";
      restore_snapshot(opt_.checkpoint_path);
      out.restored = true;
      // The snapshot rewound the data stream (possibly several steps, with
      // checkpoint_every > 1): re-sample the step it points at.
      tokens = corpus_.sample(s_global_ + 1);
      if (inj.enabled()) inj.begin_step(step_);
    }
  }
  throw FpdtError("resilient step retry budget exhausted at step " + std::to_string(step_));
}

void ResilientTrainer::save_snapshot(const std::string& path) {
  nn::TrainingState ts;
  ts.step = step_;
  ts.streams["corpus"] = corpus_.save_state();
  if (optimizer_.stage() >= 1) {
    nn::save_sharded_training_state(*model_, optimizer_.mutable_shards(),
                                    optimizer_.step_count(), opt_.world, optimizer_.stage(), ts,
                                    path);
  } else {
    nn::save_training_state(*model_, optimizer_.reference(), ts, path);
  }
}

void ResilientTrainer::restore_snapshot(const std::string& path) {
  nn::TrainingState ts;
  if (optimizer_.stage() >= 1) {
    nn::ShardedAdamState shards;
    nn::ShardedRestore sr = nn::load_sharded_training_state(*model_, shards, opt_.world,
                                                            optimizer_.stage(), path);
    ts = std::move(sr.state);
    optimizer_.set_shards(std::move(shards));
    optimizer_.set_step_count(sr.adam_step);
  } else {
    ts = nn::load_training_state(*model_, optimizer_.reference(), path);
  }
  step_ = ts.step;
  rebuild_trainer();
  auto it = ts.streams.find("corpus");
  FPDT_CHECK(it != ts.streams.end()) << " snapshot missing the corpus stream state";
  corpus_.load_state(it->second);
  obs::MetricsRegistry::global().counter("fault.restored").add(1);
}

// ---- fpdt chaos ------------------------------------------------------------

namespace {

bool bitwise_equal(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ab == bb;
}

}  // namespace

std::string ChaosResult::report(int requested_steps) const {
  std::ostringstream os;
  os.precision(17);
  os << "chaos: completed " << steps_completed << "/" << requested_steps << " steps\n"
     << "chaos: " << stats.to_string() << "\n";
  if (any_restored) os << "chaos: restore-and-replay engaged\n";
  if (math_degraded) {
    os << "chaos: OOM chunk-doubling changed the reduction order; verifying approximately\n";
  }
  if (resharded) {
    os << "chaos: rank loss re-sharded to a smaller world; verifying approximately"
          " (fpdt elastic is the bitwise check)\n";
  }
  if (!clean_losses.empty() && !losses.empty()) {
    os << "chaos: final loss " << losses.back() << " clean " << clean_losses.back() << " ";
    if (loss_bitwise_match) {
      os << "match bitwise\n";
    } else if ((math_degraded || resharded) &&
               loss_abs_diff <= 1e-2 * std::max(1.0, std::abs(clean_losses.back()))) {
      os << "match approx (|d|=" << loss_abs_diff << ")\n";
    } else {
      os << "MISMATCH (|d|=" << loss_abs_diff << ")\n";
    }
  }
  return os.str();
}

ChaosResult run_chaos(const ChaosOptions& opt) {
  FPDT_CHECK_GE(opt.steps, 1) << " chaos needs at least one step";
  FaultInjector& inj = FaultInjector::instance();
  ChaosResult result;

  const std::string clean_ckpt =
      opt.checkpoint_path.empty() ? std::string() : opt.checkpoint_path + ".clean";
  auto run_once = [&](const std::string& ckpt, std::vector<double>& losses,
                      bool* math_degraded, bool* restored, bool* resharded) {
    ResilientOptions ro;
    ro.world = opt.world;
    ro.cfg = opt.cfg;
    ro.chunk_tokens = opt.chunk_tokens;
    ro.hbm_capacity_bytes = opt.hbm_capacity_bytes;
    ro.model_seed = opt.seed;
    ro.checkpoint_path = ckpt;
    // ranklost in a chaos spec shrinks the world instead of failing the run.
    ro.elastic = true;
    ResilientTrainer rt(ro);
    while (rt.step() < opt.steps) {
      const StepOutcome o = rt.train_step();
      if (static_cast<std::size_t>(rt.step()) > losses.size()) {
        losses.resize(static_cast<std::size_t>(rt.step()));
      }
      // A restore-and-replay rewinds and overwrites; the final vector holds
      // each step's surviving loss.
      losses[static_cast<std::size_t>(rt.step()) - 1] = o.loss;
      if (math_degraded != nullptr && o.oom_degraded) *math_degraded = true;
      if (restored != nullptr && o.restored) *restored = true;
      if (resharded != nullptr && o.resharded) *resharded = true;
    }
  };

  if (!opt.spec.empty()) inj.configure(opt.spec);
  run_once(opt.checkpoint_path, result.losses, &result.math_degraded, &result.any_restored,
           &result.resharded);
  result.steps_completed = static_cast<std::int64_t>(result.losses.size());
  result.stats = inj.stats();
  inj.disable();

  if (opt.verify_against_clean) {
    run_once(clean_ckpt, result.clean_losses, nullptr, nullptr, nullptr);
    if (!result.losses.empty() && !result.clean_losses.empty()) {
      result.loss_bitwise_match = bitwise_equal(result.losses.back(), result.clean_losses.back());
      result.loss_abs_diff = std::abs(result.losses.back() - result.clean_losses.back());
    }
  }

  if (!opt.keep_checkpoint) {
    for (const std::string& p : {opt.checkpoint_path, clean_ckpt}) {
      if (p.empty()) continue;
      for (const std::string& suffix : {"", ".tmp", ".reshard", ".reshard.tmp"}) {
        std::remove((p + suffix).c_str());
      }
    }
  }
  return result;
}

}  // namespace fpdt::fault
