#include "fault/elastic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "comm/process_group.h"
#include "common/check.h"
#include "common/logging.h"
#include "nn/checkpoint_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/zero/reshard.h"
#include "tune/planner.h"

namespace fpdt::fault {

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool bitwise_equal(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ab == bb;
}

void copy_file_bytes(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in) throw FpdtError("elastic: cannot read " + from);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out) throw FpdtError("elastic: cannot write " + to);
  out << in.rdbuf();
  if (!out) throw FpdtError("elastic: short write to " + to);
}

}  // namespace

ElasticWorldManager::ElasticWorldManager(ResilientTrainer& rt,
                                         std::map<std::int64_t, int> rejoins)
    : rt_(rt),
      // slow_after_steps = 0: one withheld heartbeat while the group advances
      // is already "slow" — the sharpest deterministic slow-vs-dead boundary.
      watchdog_(rt.options().world, /*slow_after_steps=*/0),
      initial_world_(rt.options().world),
      rejoins_(std::move(rejoins)) {
  obs::MetricsRegistry::global().gauge("elastic.epoch").set(static_cast<double>(epoch_));
}

void ElasticWorldManager::note(std::string line) {
  FPDT_LOG_WARN << "elastic: " << line;
  transcript_.push_back(std::move(line));
}

int ElasticWorldManager::global_of_ordinal(int ordinal) const {
  const std::vector<int> healthy = watchdog_.healthy();
  FPDT_CHECK(ordinal >= 0 && ordinal < rt_.world()) << " elastic ordinal " << ordinal;
  FPDT_CHECK_GE(static_cast<int>(healthy.size()), rt_.world())
      << " elastic: fewer healthy ranks than the active world";
  return healthy[static_cast<std::size_t>(ordinal)];
}

void ElasticWorldManager::quiesce() {
  FPDT_TRACE_SCOPE("elastic", "elastic.quiesce");
  core::FpdtEnv& env = rt_.trainer().env();
  std::size_t discarded = 0;
  for (int r = 0; r < env.world(); ++r) {
    runtime::Device& dev = env.device(r);
    for (runtime::Stream* s : {&dev.compute_stream(), &dev.h2d_stream(), &dev.d2h_stream()}) {
      discarded += s->pending_labels().size();
      s->discard_pending();
    }
  }
  std::ostringstream os;
  os << "quiesce: discarded " << discarded << " in-flight task(s) across " << env.world()
     << " rank(s)";
  note(os.str());
}

namespace {

// Largest divisor of n no bigger than cap (>= 1); the shrink rule for both
// grid axes: keep as much of the operator's grid as the new world allows.
int largest_divisor_leq(int n, int cap) {
  for (int d = std::min(n, cap); d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

}  // namespace

WorldPlan ElasticWorldManager::plan_world(int max_world) const {
  const ResilientOptions& o = rt_.options();
  for (int w = std::min(max_world, initial_world_); w >= 1; --w) {
    // Ulysses head scatter: every rank must own whole (KV-)heads.
    if (o.model.n_head % w != 0) continue;
    if (o.model.n_kv_head > 0 && o.model.n_kv_head % w != 0) continue;
    tune::TuneRequest req;
    req.model = o.model;
    req.world = w;
    req.s_global = rt_.tokens_per_step();
    if (o.hbm_capacity_bytes > 0) req.hbm_budget_bytes = o.hbm_capacity_bytes;
    // Re-plan only the chunking: every other knob keeps its live setting so
    // the resumed run stays on the configuration the operator chose.
    req.space.zero_stages = {std::max(o.cfg.zero_stage, 0)};
    req.space.ffn_chunk_multipliers = {o.cfg.ffn_chunk_multiplier};
    req.space.lm_head_chunks = {o.cfg.lm_head_chunks};
    req.space.offload = {o.cfg.offload};
    req.space.double_buffer = {o.cfg.double_buffer};
    req.space.cache_fwd = {o.cfg.cache_forward_outputs};
    // Re-plan the 2D grid at the new world: shrink ranks-per-node to the
    // largest divisor of w, then the head axis to the largest degree that
    // still divides the node, the world and the head count
    // (parallel/grid2d.h's validity rules).
    int rpn = o.cfg.ranks_per_node > 0 ? largest_divisor_leq(w, o.cfg.ranks_per_node) : 0;
    int hd = 0;
    if (o.cfg.head_degree > 0) {
      for (int h = std::min(o.cfg.head_degree, w); h >= 1; --h) {
        if (w % h != 0 || o.model.n_head % h != 0) continue;
        if (rpn > 0 && rpn % h != 0) continue;
        hd = h;
        break;
      }
    }
    for (const tune::PlannedCandidate& pc : tune::Planner(req).plan()) {
      if (pc.pruned) continue;
      return WorldPlan{w, pc.cand.cfg.chunks_per_rank, rpn, hd, pc.cand.label};
    }
  }
  throw FpdtError("elastic: no valid world <= " + std::to_string(max_world) + " for " +
                  std::to_string(rt_.tokens_per_step()) + " tokens/step and " +
                  std::to_string(o.model.n_head) + " heads");
}

void ElasticWorldManager::reshard_to(const WorldPlan& plan, int exclude_ordinal) {
  FPDT_TRACE_SCOPE("elastic", "elastic.reshard");
  const ResilientOptions& o = rt_.options();
  FPDT_CHECK(!o.checkpoint_path.empty()) << " elastic reshard needs a checkpoint path";
  const std::string twin = o.checkpoint_path + ".reshard";
  const int cur = rt_.world();
  if (o.cfg.zero_stage >= 1) {
    nn::ShardedAdamState shards;
    nn::ShardedRestore sr = nn::load_sharded_training_state(rt_.model(), shards, cur,
                                                            o.cfg.zero_stage,
                                                            o.checkpoint_path);
    zero::ParamElems numels;
    rt_.model().visit_params([&](nn::Param& p) { numels[p.name] = p.value.numel(); });
    const zero::ShardManifest manifest = zero::manifest_of(shards, numels, cur);

    // Digest agreement over the healthy subset: every survivor contributes
    // the manifest digest of its view of the coordinated snapshot; any
    // disagreement means a diverged or corrupt replica and the reshard must
    // not proceed.
    std::vector<int> members;
    for (int r = 0; r < cur; ++r) {
      if (r != exclude_ordinal) members.push_back(r);
    }
    if (!members.empty()) {
      const std::uint64_t digest = manifest.digest();
      const auto hi = static_cast<std::uint32_t>(digest >> 32);
      const auto lo = static_cast<std::uint32_t>(digest);
      Tensor local = Tensor::zeros({2});
      std::memcpy(&local.data()[0], &hi, sizeof(hi));
      std::memcpy(&local.data()[1], &lo, sizeof(lo));
      std::vector<Tensor> per;
      per.reserve(members.size());
      for (std::size_t i = 0; i < members.size(); ++i) per.push_back(local.clone());
      comm::GroupView view(rt_.trainer().env().pg(), members);
      const std::vector<Tensor> gathered = view.all_gather(per);
      for (const Tensor& g : gathered) {
        for (std::int64_t i = 0; i < g.numel(); i += 2) {
          if (std::memcmp(&g.data()[i], &local.data()[0], sizeof(float)) != 0 ||
              std::memcmp(&g.data()[i + 1], &local.data()[1], sizeof(float)) != 0) {
            throw FpdtError("elastic: survivors disagree on the shard manifest digest");
          }
        }
      }
    }

    const nn::ShardedAdamState out =
        zero::reshard_adam_state(shards, numels, cur, plan.world);
    // The live checkpoint moves to the new geometry; the `.reshard` copy is
    // the frozen restore point the bitwise twin starts from.
    for (const std::string& path : {o.checkpoint_path, twin}) {
      nn::ShardedAdamState copy = out;
      nn::save_sharded_training_state(rt_.model(), copy, sr.adam_step, plan.world,
                                      o.cfg.zero_stage, sr.state, path);
    }
    std::ostringstream os;
    os << "reshard: zero" << o.cfg.zero_stage << " moment shards " << cur << " -> "
       << plan.world << " (" << manifest.to_string() << ", " << members.size()
       << " survivor(s) agreed)";
    note(os.str());
  } else {
    // Replicated optimizer state (FPDTTRN1) is world-invariant; the twin
    // restore point is a byte copy.
    copy_file_bytes(o.checkpoint_path, twin);
    note("reshard: replicated optimizer state is world-invariant; snapshot copied for twin");
  }
  obs::MetricsRegistry::global().counter("elastic.reshards").add(1);
  reshard_step_ = rt_.step();
  reshard_world_ = plan.world;
  reshard_chunks_ = plan.chunks_per_rank;
}

WorldPlan ElasticWorldManager::on_rank_lost(const comm::CommResult& res) {
  const auto t0 = std::chrono::steady_clock::now();
  const int cur = rt_.world();
  int ordinal = res.rank;
  if (ordinal < 0 || ordinal >= cur) ordinal = cur - 1;
  const int global = global_of_ordinal(ordinal);
  quiesce();
  watchdog_.mark_dead(global);
  ++epoch_;
  obs::MetricsRegistry::global().gauge("elastic.epoch").set(static_cast<double>(epoch_));
  const int alive = watchdog_.alive_count();
  {
    std::ostringstream os;
    os << "epoch " << epoch_ << ": ranklost rank " << global << " (ordinal " << ordinal
       << ") at step " << rt_.step() << " [" << res.detail << "]; alive " << alive << "/"
       << initial_world_;
    note(os.str());
  }
  if (alive < 1) throw FpdtError("elastic: no surviving ranks");
  const WorldPlan plan = plan_world(alive);
  {
    std::ostringstream os;
    os << "plan: world " << cur << " -> " << plan.world << " (chunks_per_rank "
       << plan.chunks_per_rank << ", candidate " << plan.label << ")";
    if (plan.ranks_per_node > 0 || plan.head_degree > 0) {
      os << " grid rpn=" << plan.ranks_per_node << " hd=" << plan.head_degree;
    }
    note(os.str());
  }
  reshard_to(plan, ordinal);
  const double dt = seconds_since(t0);
  recovery_seconds_ += dt;
  obs::MetricsRegistry::global().histogram("elastic.recovery_s").observe(dt);
  return plan;
}

void ElasticWorldManager::on_partition(const comm::CommResult& res) {
  const auto t0 = std::chrono::steady_clock::now();
  quiesce();
  ++epoch_;
  obs::MetricsRegistry::global().gauge("elastic.epoch").set(static_cast<double>(epoch_));
  std::ostringstream os;
  os << "epoch " << epoch_ << ": netpart at step " << rt_.step() << " [" << res.detail
     << "]; membership unchanged, replaying the step at world " << rt_.world();
  note(os.str());
  const double dt = seconds_since(t0);
  recovery_seconds_ += dt;
  obs::MetricsRegistry::global().histogram("elastic.recovery_s").observe(dt);
}

std::optional<WorldPlan> ElasticWorldManager::on_step_complete(std::int64_t step) {
  FaultInjector& inj = FaultInjector::instance();
  core::FpdtEnv& env = rt_.trainer().env();
  const int cur = rt_.world();
  const std::vector<int> healthy = watchdog_.healthy();
  FPDT_CHECK_GE(static_cast<int>(healthy.size()), cur) << " elastic heartbeat round";
  for (int ord = 0; ord < cur; ++ord) {
    const int global = healthy[static_cast<std::size_t>(ord)];
    if (faults_enabled() && inj.should_fail(Site::kRankSlow, ord)) {
      std::ostringstream os;
      os << "rankslow: rank " << global << " withheld its heartbeat for step " << step;
      note(os.str());
      continue;
    }
    watchdog_.heartbeat(global, step, env.device(ord).compute_stream().tail_time());
  }
  for (int ord = 0; ord < cur; ++ord) {
    const int global = healthy[static_cast<std::size_t>(ord)];
    if (watchdog_.verdict(global) != RankHealth::kSlow) continue;
    const Watchdog::Progress p = watchdog_.last_progress(global);
    std::ostringstream os;
    os << "watchdog: rank " << global << " slow (step " << (p.step < 0 ? 0 : p.step)
       << " vs front " << step << ") — tolerated, membership unchanged";
    note(os.str());
  }

  const auto it = rejoins_.find(step);
  if (it == rejoins_.end()) return std::nullopt;
  int revived = 0;
  for (int g = 0; g < initial_world_ && revived < it->second; ++g) {
    if (watchdog_.last_progress(g).dead) {
      watchdog_.revive(g);
      ++revived;
    }
  }
  if (revived == 0) {
    std::ostringstream os;
    os << "rejoin: scheduled at step " << step << " but no dead ranks to revive";
    note(os.str());
    return std::nullopt;
  }
  const auto t0 = std::chrono::steady_clock::now();
  ++epoch_;
  obs::MetricsRegistry::global().gauge("elastic.epoch").set(static_cast<double>(epoch_));
  {
    std::ostringstream os;
    os << "epoch " << epoch_ << ": rejoin " << revived << " rank(s) after step " << step
       << "; alive " << watchdog_.alive_count() << "/" << initial_world_;
    note(os.str());
  }
  const WorldPlan plan = plan_world(watchdog_.alive_count());
  if (plan.world == cur) {
    std::ostringstream os;
    os << "rejoin: world stays at " << cur << " (rejoined ranks held as spares)";
    note(os.str());
    return std::nullopt;
  }
  const ResilientOptions& o = rt_.options();
  if (o.checkpoint_path.empty() || step % o.checkpoint_every != 0) {
    note("rejoin: no fresh coordinated snapshot at this step; growth deferred");
    return std::nullopt;
  }
  {
    std::ostringstream os;
    os << "plan: world " << cur << " -> " << plan.world << " (chunks_per_rank "
       << plan.chunks_per_rank << ", candidate " << plan.label << ")";
    if (plan.ranks_per_node > 0 || plan.head_degree > 0) {
      os << " grid rpn=" << plan.ranks_per_node << " hd=" << plan.head_degree;
    }
    note(os.str());
  }
  reshard_to(plan, /*exclude_ordinal=*/-1);
  const double dt = seconds_since(t0);
  recovery_seconds_ += dt;
  obs::MetricsRegistry::global().histogram("elastic.recovery_s").observe(dt);
  return plan;
}

// ---- fpdt elastic ----------------------------------------------------------

namespace {

// Strips `rejoin:step=S[,ranks=N]` clauses out of the scenario (they are a
// membership schedule, not injectable faults) and returns them as a
// step -> count map; everything else is re-joined for the injector.
std::map<std::int64_t, int> split_scenario(const std::string& scenario,
                                           std::string* injector_spec) {
  std::map<std::int64_t, int> rejoins;
  std::string spec;
  std::stringstream ss(scenario);
  std::string clause;
  while (std::getline(ss, clause, ';')) {
    const std::size_t a = clause.find_first_not_of(" \t");
    if (a == std::string::npos) continue;
    const std::size_t b = clause.find_last_not_of(" \t");
    clause = clause.substr(a, b - a + 1);
    if (clause.rfind("rejoin:", 0) != 0) {
      if (!spec.empty()) spec += ';';
      spec += clause;
      continue;
    }
    std::int64_t step = -1;
    int ranks = 1;
    std::stringstream args(clause.substr(7));
    std::string kv;
    while (std::getline(args, kv, ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) throw FpdtError("elastic: bad rejoin arg '" + kv + "'");
      const std::string key = kv.substr(0, eq);
      const long long value = std::stoll(kv.substr(eq + 1));
      if (key == "step") {
        step = value;
      } else if (key == "ranks") {
        ranks = static_cast<int>(value);
      } else {
        throw FpdtError("elastic: unknown rejoin key '" + key + "'");
      }
    }
    if (step < 0) throw FpdtError("elastic: rejoin clause needs step=");
    if (ranks < 1) throw FpdtError("elastic: rejoin needs ranks >= 1");
    rejoins[step] += ranks;
  }
  *injector_spec = spec;
  return rejoins;
}

void remove_run_files(const std::string& base) {
  for (const std::string& suffix : {"", ".reshard", ".twin", ".clean"}) {
    const std::string p = base + suffix;
    std::remove(p.c_str());
    std::remove((p + ".tmp").c_str());
  }
}

}  // namespace

std::string ElasticResult::report(int requested_steps) const {
  std::ostringstream os;
  os.precision(17);
  os << "elastic: completed " << steps_completed << "/" << requested_steps << " steps\n"
     << "elastic: epoch " << final_epoch << ", world " << initial_world << " -> "
     << final_world << "\n"
     << "elastic: " << stats.to_string() << "\n";
  for (const std::string& line : transcript) os << "elastic:   " << line << "\n";
  if (resharded()) {
    os << "elastic: reshard at step " << reshard_step << " -> world " << reshard_world
       << " (chunks_per_rank " << reshard_chunks << ")\n";
  }
  os << "elastic: recovery wall_s=" << recovery_wall_s << "\n";
  if (!twin_losses.empty() || resharded()) {
    os << "elastic: twin verified " << twin_losses.size() << " step(s)";
    if (resharded()) os << " from step " << reshard_step << " at world " << reshard_world;
    os << ": " << (twin_bitwise_match ? "match bitwise" : "MISMATCH") << "\n";
  }
  if (!losses.empty() && !twin_losses.empty()) {
    os << "elastic: final loss " << losses.back() << " twin " << twin_losses.back() << "\n";
  }
  return os.str();
}

ElasticResult run_elastic(const ElasticOptions& opt) {
  FPDT_CHECK_GE(opt.steps, 1) << " elastic needs at least one step";
  FaultInjector& inj = FaultInjector::instance();
  ElasticResult result;
  result.initial_world = opt.world;

  std::string spec;
  std::map<std::int64_t, int> rejoins = split_scenario(opt.scenario, &spec);

  ResilientOptions ro;
  ro.world = opt.world;
  ro.cfg = opt.cfg;
  ro.chunk_tokens = opt.chunk_tokens;
  ro.hbm_capacity_bytes = opt.hbm_capacity_bytes;
  ro.model_seed = opt.seed;
  ro.model = opt.model;
  ro.checkpoint_path = opt.checkpoint_path;
  ro.elastic = true;
  ro.rejoin_at = rejoins;

  if (!spec.empty()) inj.configure(spec);
  {
    ResilientTrainer rt(ro);
    while (rt.step() < opt.steps) {
      const StepOutcome o = rt.train_step();
      if (static_cast<std::size_t>(rt.step()) > result.losses.size()) {
        result.losses.resize(static_cast<std::size_t>(rt.step()));
      }
      result.losses[static_cast<std::size_t>(rt.step()) - 1] = o.loss;
    }
    ElasticWorldManager* em = rt.elastic();
    result.transcript = em->transcript();
    result.final_epoch = em->epoch();
    result.final_world = rt.world();
    result.reshard_step = em->reshard_step();
    result.reshard_world = em->reshard_world();
    result.reshard_chunks = em->reshard_chunks();
    result.recovery_wall_s = em->recovery_seconds();
  }
  result.steps_completed = static_cast<std::int64_t>(result.losses.size());
  result.stats = inj.stats();
  inj.disable();

  if (opt.verify_twin && result.survived(opt.steps)) {
    if (result.resharded()) {
      // Fresh run at the reduced world restored from the frozen `.reshard`
      // snapshot: every replayed step must match the elastic run bitwise.
      ResilientOptions tw = ro;
      tw.world = result.reshard_world;
      tw.cfg.chunks_per_rank = result.reshard_chunks;
      const std::int64_t s_global =
          static_cast<std::int64_t>(opt.world) * opt.cfg.chunks_per_rank * opt.chunk_tokens;
      tw.chunk_tokens = s_global / (result.reshard_world * result.reshard_chunks);
      tw.elastic = false;
      tw.rejoin_at.clear();
      tw.restore_from = opt.checkpoint_path + ".reshard";
      tw.checkpoint_path = opt.checkpoint_path + ".twin";
      ResilientTrainer twin(tw);
      while (twin.step() < opt.steps) {
        result.twin_losses.push_back(twin.train_step().loss);
      }
      result.twin_bitwise_match = true;
      for (std::size_t i = 0; i < result.twin_losses.size(); ++i) {
        const std::size_t at = static_cast<std::size_t>(result.reshard_step) + i;
        if (at >= result.losses.size() ||
            !bitwise_equal(result.losses[at], result.twin_losses[i])) {
          result.twin_bitwise_match = false;
          break;
        }
      }
    } else {
      // No membership change survived to the end (netpart/rankslow only):
      // a fault-free clean twin must match every step bitwise.
      ResilientOptions tw = ro;
      tw.rejoin_at.clear();
      tw.checkpoint_path = opt.checkpoint_path + ".clean";
      ResilientTrainer twin(tw);
      while (twin.step() < opt.steps) {
        result.twin_losses.push_back(twin.train_step().loss);
      }
      result.twin_bitwise_match = result.twin_losses.size() == result.losses.size();
      for (std::size_t i = 0; result.twin_bitwise_match && i < result.losses.size(); ++i) {
        result.twin_bitwise_match = bitwise_equal(result.losses[i], result.twin_losses[i]);
      }
    }
  }

  if (!opt.keep_checkpoint && !opt.checkpoint_path.empty()) {
    remove_run_files(opt.checkpoint_path);
  }
  return result;
}

}  // namespace fpdt::fault
