// The autotuner (src/tune/): search-space canonicalization, conservative
// pruning, the prune-soundness sweep (a pruned candidate must never measure
// as fitting the budget), bit-identical TuneReports with the result cache
// cold and warm, the Runner's exact double round-trip through the on-disk
// cache, the Fig. 12 chunk-sweep shape contract, and the profile-level ZeRO
// stage plumbing the tuner executes through.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "tune/planner.h"
#include "tune/runner.h"
#include "tune/search_space.h"
#include "tune/sweep.h"
#include "tune/tuner.h"

namespace fpdt::tune {
namespace {

bool bitwise_equal(double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ab == bb;
}

// The laptop-scale request every executed test tunes: tiny GPT, 2 emulated
// GPUs, 512 tokens, one profiled step. The 1450K budget is calibrated so
// ZeRO stage 0 (model-state floor ~1.6M) prunes while stages 1-3 survive,
// and so offloaded candidates fit while resident+cache_fwd ones do not.
TuneRequest smoke_request() {
  TuneRequest req;
  req.world = 2;
  req.s_global = 512;
  req.steps = 1;
  req.seed = 1234;
  req.hbm_budget_bytes = 1450LL * 1024;
  req.top_k = 8;
  // Restricted grid (12 canonical candidates) keeps executed tests fast.
  req.space.chunks_per_rank = {2, 4};
  req.space.zero_stages = {0, 1, 3};
  req.space.ffn_chunk_multipliers = {2};
  req.space.offload = {true, false};
  req.space.double_buffer = {true};
  req.space.cache_fwd = {true};
  return req;
}

std::string temp_cache_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("fpdt_test_tune_") + tag + ".cache"))
      .string();
}

// ---- SearchSpace -----------------------------------------------------------

TEST(SearchSpace, DivisibilityConstraint) {
  // world * u must divide s_global with >= 1 token per chunk.
  EXPECT_TRUE(SearchSpace::divisible(2, 512, 4));
  EXPECT_TRUE(SearchSpace::divisible(4, 512, 8));
  EXPECT_FALSE(SearchSpace::divisible(3, 512, 1));   // 512 % 3 != 0
  EXPECT_FALSE(SearchSpace::divisible(2, 6, 4));     // 6 % 8 != 0
  EXPECT_FALSE(SearchSpace::divisible(2, 0, 1));     // no tokens
}

TEST(SearchSpace, EnumerateRespectsDivisibility) {
  SearchSpace space;
  space.chunks_per_rank = {1, 2, 3, 4};  // u=3 does not divide 512/world
  for (const Candidate& c : space.enumerate(2, 512)) {
    EXPECT_TRUE(SearchSpace::divisible(2, 512, c.cfg.chunks_per_rank)) << c.label;
    EXPECT_NE(c.cfg.chunks_per_rank, 3) << c.label;
  }
}

TEST(SearchSpace, CanonicalizationCollapsesOffloadAxes) {
  SearchSpace space;
  const std::vector<Candidate> cands = space.enumerate(2, 512);
  ASSERT_FALSE(cands.empty());
  std::set<std::string> canon;
  for (const Candidate& c : cands) {
    // No duplicates after canonicalization.
    EXPECT_TRUE(canon.insert(c.cfg.canonical()).second) << c.label;
    // Without offload there is no migration to buffer or prefetch.
    if (!c.cfg.offload) {
      EXPECT_FALSE(c.cfg.double_buffer) << c.label;
      EXPECT_FALSE(c.cfg.stream_prefetch) << c.label;
    } else {
      EXPECT_TRUE(c.cfg.stream_prefetch) << c.label;
    }
    // Strategy mirrors the executable config at this (world, s_global).
    EXPECT_EQ(c.strategy.fpdt_chunk_tokens, 512 / c.cfg.chunks_per_rank) << c.label;
  }
  // Full default grid at (2, 512): 4u x 4z x 2ffn x (offload: 2db x 2cf = 4;
  // resident: 2cf) = 4*4*2*6 = 192 canonical points.
  EXPECT_EQ(cands.size(), 192u);
}

TEST(SearchSpace, LabelsAreDeterministic) {
  core::FpdtConfig cfg;
  cfg.chunks_per_rank = 4;
  cfg.offload = true;
  cfg.double_buffer = true;
  cfg.cache_forward_outputs = true;
  cfg.ffn_chunk_multiplier = 2;
  cfg.lm_head_chunks = 0;
  cfg.zero_stage = 3;
  const Candidate c = make_candidate(cfg, 2, 512);
  EXPECT_EQ(c.label, "u4-z3-off+db+cf-ffn2-lm0");
  cfg.offload = false;
  cfg.double_buffer = false;
  const Candidate r = make_candidate(cfg, 2, 512);
  EXPECT_EQ(r.label, "u4-z3-res+cf-ffn2-lm0");
}

// ---- Planner ---------------------------------------------------------------

TEST(Planner, PrunesOnlyProvablyOversizedCandidates) {
  const TuneRequest req = smoke_request();
  const std::vector<PlannedCandidate> planned = Planner(req).plan();
  ASSERT_FALSE(planned.empty());
  int pruned = 0;
  for (const PlannedCandidate& pc : planned) {
    if (pc.pruned) {
      ++pruned;
      // Pruning only ever fires on the conservative model-state floor.
      EXPECT_GT(pc.floor_bytes, req.budget()) << pc.cand.label;
      EXPECT_FALSE(pc.prune_reason.empty()) << pc.cand.label;
      // With this budget only stage 0 (replicated model state) can prune.
      EXPECT_EQ(pc.cand.cfg.zero_stage, 0) << pc.cand.label;
    } else {
      EXPECT_LE(pc.floor_bytes, req.budget()) << pc.cand.label;
    }
  }
  // Every stage-0 candidate in the restricted grid is over the floor.
  EXPECT_EQ(pruned, 4);
}

TEST(Planner, OrdersFittingCandidatesFirst) {
  const TuneRequest req = smoke_request();
  const std::vector<PlannedCandidate> planned = Planner(req).plan();
  // Order contract: unpruned before pruned; within unpruned, modeled-fits
  // before modeled-over; within each group, modeled step ascending.
  for (std::size_t i = 1; i < planned.size(); ++i) {
    const PlannedCandidate& a = planned[i - 1];
    const PlannedCandidate& b = planned[i];
    EXPECT_LE(a.pruned, b.pruned) << b.cand.label;
    if (!a.pruned && !b.pruned) {
      EXPECT_GE(a.modeled_fits, b.modeled_fits) << b.cand.label;
      if (a.modeled_fits == b.modeled_fits) {
        EXPECT_LE(a.modeled.step_s, b.modeled.step_s) << b.cand.label;
      }
    }
  }
}

// ---- Prune soundness -------------------------------------------------------

// The load-bearing contract: execute EVERY candidate the planner saw —
// including the pruned ones — and check that nothing the pruner discarded
// would actually have fit the budget when measured.
TEST(PruneSoundness, PrunedCandidatesNeverMeasureAsFitting) {
  const TuneRequest req = smoke_request();
  const std::vector<PlannedCandidate> planned = Planner(req).plan();
  Runner runner(req);
  for (const PlannedCandidate& pc : planned) {
    const Measurement m = runner.run(pc.cand);
    EXPECT_GT(m.hbm_peak_bytes, 0) << pc.cand.label;
    if (pc.pruned) {
      EXPECT_GT(m.hbm_peak_bytes, req.budget())
          << pc.cand.label << " was pruned but measures as fitting — unsound prune";
      // The floor really is a lower bound on the measurement.
      EXPECT_LE(pc.floor_bytes, m.hbm_peak_bytes) << pc.cand.label;
    }
  }
}

// ---- tune() end-to-end -----------------------------------------------------

TEST(Tune, WinnerFitsAndIsFastestMeasured) {
  const TuneRequest req = smoke_request();
  const TuneReport rep = tune(req);
  EXPECT_EQ(rep.enumerated, 12);
  EXPECT_EQ(rep.pruned_count, 4);
  EXPECT_EQ(rep.executed_count, 8);
  ASSERT_GE(rep.winner, 0) << rep.table();
  const TuneRow* win = rep.winning();
  ASSERT_NE(win, nullptr);
  EXPECT_TRUE(win->executed);
  EXPECT_TRUE(win->fits_budget);
  EXPECT_EQ(win->status, "winner");
  EXPECT_LE(win->measured.hbm_peak_bytes, req.budget());
  for (const TuneRow& r : rep.rows) {
    if (r.executed && r.fits_budget) {
      EXPECT_LE(r.measured.tokens_per_s, win->measured.tokens_per_s) << r.planned.cand.label;
    }
  }
  // The winning config round-trips into an executable FpdtConfig.
  const core::FpdtConfig cfg = rep.winning_config();
  EXPECT_EQ(cfg.canonical(), win->planned.cand.cfg.canonical());
}

TEST(Tune, RowOrderingContract) {
  const TuneReport rep = tune(smoke_request());
  // executed rows first (tok/s descending), then skipped, then pruned.
  int phase = 0;  // 0=executed 1=skipped 2=pruned
  double prev_tok_s = 0.0;
  for (const TuneRow& r : rep.rows) {
    const int k = r.executed ? 0 : (r.planned.pruned ? 2 : 1);
    EXPECT_GE(k, phase) << r.planned.cand.label;
    if (k == 0) {
      if (phase == 0 && prev_tok_s > 0.0) {
        EXPECT_LE(r.measured.tokens_per_s, prev_tok_s) << r.planned.cand.label;
      }
      prev_tok_s = r.measured.tokens_per_s;
    }
    phase = k;
  }
}

TEST(Tune, ReportBitIdenticalColdAndWarmCache) {
  const std::string cache = temp_cache_path("coldwarm");
  std::filesystem::remove(cache);
  TuneRequest req = smoke_request();
  req.cache_path = cache;

  const TuneReport cold = tune(req);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.executed_count, 8);
  ASSERT_TRUE(std::filesystem::exists(cache));

  const TuneReport warm = tune(req);
  EXPECT_EQ(warm.cache_hits, warm.executed_count);

  // Bit-identical rendered reports, cache state notwithstanding.
  EXPECT_EQ(cold.json(), warm.json());
  EXPECT_EQ(cold.table(), warm.table());
  std::filesystem::remove(cache);
}

TEST(Tune, DeterministicAcrossRepeatedRuns) {
  const TuneRequest req = smoke_request();  // no cache: both runs execute
  const TuneReport a = tune(req);
  const TuneReport b = tune(req);
  EXPECT_EQ(a.json(), b.json());
  EXPECT_EQ(a.table(), b.table());
}

// ---- Runner cache ----------------------------------------------------------

TEST(Runner, CacheRoundTripIsBitExact) {
  const std::string cache = temp_cache_path("roundtrip");
  std::filesystem::remove(cache);
  TuneRequest req = smoke_request();
  req.cache_path = cache;
  const Candidate cand = req.space.enumerate(req.world, req.s_global).front();

  Runner first(req);
  const Measurement executed = first.run(cand);
  EXPECT_FALSE(executed.from_cache);
  EXPECT_EQ(first.executed(), 1);

  Runner second(req);  // fresh process-equivalent: reloads from disk
  const Measurement cached = second.run(cand);
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(second.cache_hits(), 1);
  EXPECT_EQ(second.executed(), 0);

  EXPECT_TRUE(bitwise_equal(executed.virtual_step_s, cached.virtual_step_s));
  EXPECT_TRUE(bitwise_equal(executed.tokens_per_s, cached.tokens_per_s));
  EXPECT_TRUE(bitwise_equal(executed.overlap_ratio, cached.overlap_ratio));
  EXPECT_TRUE(bitwise_equal(executed.loss, cached.loss));
  EXPECT_EQ(executed.hbm_peak_bytes, cached.hbm_peak_bytes);
  std::filesystem::remove(cache);
}

TEST(Runner, TamperedCacheLineIsDropped) {
  const std::string cache = temp_cache_path("tamper");
  std::filesystem::remove(cache);
  TuneRequest req = smoke_request();
  req.cache_path = cache;
  const Candidate cand = req.space.enumerate(req.world, req.s_global).front();
  Runner(req).run(cand);

  // Flip the measurement payload without fixing the key hash.
  std::ifstream in(cache);
  std::string line;
  std::getline(in, line);
  in.close();
  const std::size_t last = line.rfind(' ');
  ASSERT_NE(last, std::string::npos);
  line.replace(last + 1, std::string::npos, "dead");
  {
    std::ofstream out(cache, std::ios::trunc);
    out << "FPDTTUNE1 0000000000000000 bogus-key 0 0 0 0 0\n" << line << "\n";
  }

  Runner reloaded(req);
  const Measurement m = reloaded.run(cand);
  // Both lines were invalid, so this re-executes rather than trusting them.
  EXPECT_FALSE(m.from_cache);
  EXPECT_EQ(reloaded.cache_hits(), 0);
  std::filesystem::remove(cache);
}

TEST(Runner, CacheKeySeparatesRequests) {
  TuneRequest a = smoke_request();
  TuneRequest b = smoke_request();
  b.seed = 999;
  TuneRequest c = smoke_request();
  c.s_global = 1024;
  const Candidate cand = a.space.enumerate(a.world, a.s_global).front();
  const std::string ka = Runner(a).cache_key(cand);
  EXPECT_NE(ka, Runner(b).cache_key(cand));
  EXPECT_NE(ka, Runner(c).cache_key(cand));
}

// ---- Chunk sweep (Fig. 12) -------------------------------------------------

TEST(ChunkSweep, CurveIsMonotoneThenFlat) {
  const std::vector<ChunkSweepRow> rows = chunk_sweep();
  ASSERT_FALSE(rows.empty());
  std::set<std::string> models;
  for (const ChunkSweepRow& r : rows) models.insert(r.model);
  EXPECT_EQ(models.size(), 4u);  // the paper's four Fig. 12 cases
  std::string why;
  EXPECT_TRUE(check_chunk_curve(rows, &why)) << why;
}

TEST(ChunkSweep, ShapeCheckRejectsBrokenCurves) {
  std::vector<ChunkSweepRow> rows = chunk_sweep();
  // Invert the memory ordering of one series: must be caught.
  rows.front().hbm_total = rows.back().hbm_total + (1LL << 40);
  std::string why;
  EXPECT_FALSE(check_chunk_curve(rows, &why));
  EXPECT_FALSE(why.empty());
}

// ---- fpdt profile --zero-stage ---------------------------------------------

TEST(ProfileZeroStage, LossBitIdenticalAndModelStateAccounted) {
  obs::ProfileOptions base;
  base.steps = 2;
  base.trace = false;
  base.trace_path.clear();
  base.metrics_path.clear();

  obs::ProfileOptions z0 = base;
  z0.cfg.zero_stage = 0;
  obs::ProfileOptions z3 = base;
  z3.cfg.zero_stage = 3;

  const obs::ProfileResult r_z0 = obs::run_profile(z0);
  const obs::ProfileResult r_z3 = obs::run_profile(z3);

  // ZeRO conformance reaches the profiler: every stage trains bit-identically.
  ASSERT_EQ(r_z0.steps.size(), r_z3.steps.size());
  for (std::size_t i = 0; i < r_z0.steps.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(r_z0.steps[i].loss, r_z3.steps[i].loss)) << i;
  }
  // Partitioned stage 3 holds strictly less than replicated stage 0.
  EXPECT_LT(r_z3.steps.back().hbm_peak_bytes, r_z0.steps.back().hbm_peak_bytes);
}

}  // namespace
}  // namespace fpdt::tune
