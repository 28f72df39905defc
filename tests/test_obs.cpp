// The observability layer (src/obs): tracer semantics (gating, ring buffer,
// scope nesting on the virtual clock), Chrome-trace JSON well-formedness,
// metrics aggregation, and the profiler's headline guarantee — profiling a
// step of any strategy changes nothing about its results, and an FPDT step's
// trace covers every built-in category on every rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "kernels/backend.h"
#include "nn/model.h"
#include "nn/model_config.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/workmeter.h"
#include "parallel/strategy.h"
#include "runtime/stream.h"

// Counting replacement allocator for the zero-allocation contract tests:
// every operator-new in this binary bumps one relaxed atomic. The default
// array and nothrow forms forward here, so the single pair suffices;
// aligned forms keep their defaults (they pair among themselves).
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fpdt {
namespace {

// RAII tracer window: clears the global tracer, enables it, and guarantees
// it is disabled again when the test block ends (other suites in this
// binary must not observe a leaked enable).
struct TracerWindow {
  TracerWindow() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  ~TracerWindow() { obs::Tracer::instance().set_enabled(false); }
};

// ---- Hand-rolled JSON syntax checker ---------------------------------------
// No JSON library in the image; a recursive-descent validator is enough to
// assert the exporters can never emit a document Perfetto would reject.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  bool eat(char c) {
    if (eof() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) ++pos_;
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!eat(*p)) return false;
    }
    return true;
  }

  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (!eof()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        if (eof()) return false;
        const char esc = s_[pos_++];
        if (esc == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (eof() || std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) return false;
            ++pos_;
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' &&
                   esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (eat('-')) {}
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (eat('.')) {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsValidRejectsBroken) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4,"x\n",true,null],"b":{}})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").valid());
  EXPECT_FALSE(JsonChecker("{\"a\":\"\n\"}").valid());  // raw newline in string
}

// ---- Tracer -----------------------------------------------------------------

TEST(TracerTest, DisabledTracerEmitsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();

  // Every built-in hook: stream spans, pool samples, a TraceScope.
  runtime::Stream s("s");
  s.set_trace_identity(0, "compute");
  s.enqueue("work", 1.0);
  s.synchronize();
  runtime::MemoryPool pool("p", -1);
  pool.charge(64);
  pool.discharge(64);
  { FPDT_TRACE_SCOPE(obs::kCatPhase, "nothing"); }

  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, ScopeNestingAndClockMonotonicity) {
  TracerWindow window;
  obs::Tracer& tracer = obs::Tracer::instance();

  {
    obs::TraceScope outer(obs::kCatPhase, "outer", 0);
    tracer.complete(obs::kCatStream, "a", 0, "compute", 0.0, 1.0);
    {
      obs::TraceScope inner(obs::kCatPhase, "inner", 0);
      tracer.complete(obs::kCatStream, "b", 0, "compute", 1.0, 2.0);
    }
  }
  EXPECT_DOUBLE_EQ(tracer.clock(0), 3.0);  // advanced to the last span's finish

  obs::TraceEvent outer_ev, inner_ev;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name == "outer") outer_ev = ev;
    if (ev.name == "inner") inner_ev = ev;
  }
  ASSERT_EQ(outer_ev.kind, obs::TraceEvent::Kind::kComplete);
  ASSERT_EQ(inner_ev.kind, obs::TraceEvent::Kind::kComplete);
  // Inner interval nests inside outer on the virtual clock.
  EXPECT_GE(inner_ev.ts_s, outer_ev.ts_s);
  EXPECT_LE(inner_ev.ts_s + inner_ev.dur_s, outer_ev.ts_s + outer_ev.dur_s);
  EXPECT_DOUBLE_EQ(outer_ev.ts_s, 0.0);
  EXPECT_DOUBLE_EQ(outer_ev.dur_s, 3.0);
  EXPECT_DOUBLE_EQ(inner_ev.ts_s, 1.0);
  EXPECT_DOUBLE_EQ(inner_ev.dur_s, 2.0);
}

TEST(TracerTest, RingBufferDropsOldest) {
  TracerWindow window;
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::size_t saved_capacity = tracer.capacity();
  tracer.set_capacity(4);
  for (int i = 0; i < 6; ++i) {
    tracer.instant(obs::kCatPhase, "e" + std::to_string(i), 0, "cpu");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<obs::TraceEvent> evs = tracer.events();
  EXPECT_EQ(evs.front().name, "e2");  // e0, e1 fell off the front
  EXPECT_EQ(evs.back().name, "e5");
  tracer.set_capacity(saved_capacity);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  TracerWindow window;
  obs::Tracer& tracer = obs::Tracer::instance();
  // Names with every character class the escaper must handle.
  tracer.complete(obs::kCatStream, "quote\"back\\slash", 0, "compute", 0.0, 1.0);
  tracer.instant(obs::kCatChunk, "newline\nand\ttab\x01", 1, "chunk", 42.0, true);
  tracer.counter(obs::kCatMemory, "hbm bytes", obs::kNodeRank, 1e9);

  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

// ---- Metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramAggregation) {
  obs::MetricsRegistry reg;
  reg.counter("req", "rank=0").add(3);
  reg.counter("req", "rank=0").add(2);  // same instrument: labels key
  reg.counter("req", "rank=1").add(7);
  reg.gauge("temp").set(1.5);
  reg.gauge("temp").set(2.5);  // last write wins
  obs::Histogram& h = reg.histogram("lat");
  h.observe(0.5);
  h.observe(2.0);
  h.observe(3.5);

  EXPECT_EQ(reg.counter("req", "rank=0").value(), 5);
  EXPECT_EQ(reg.counter("req", "rank=1").value(), 7);
  EXPECT_DOUBLE_EQ(reg.gauge("temp").value(), 2.5);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  const std::vector<std::int64_t> buckets = h.buckets();
  EXPECT_EQ(buckets[0], 1);  // 0.5 < 1
  EXPECT_EQ(buckets[2], 2);  // 2.0 and 3.5 in [2, 4)

  EXPECT_EQ(reg.snapshot().size(), 4u);
  EXPECT_TRUE(JsonChecker(reg.json()).valid()) << reg.json();
}

TEST(MetricsTest, EmptyHistogramIsZeroNotNan) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("empty");
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(JsonChecker(reg.json()).valid());
}

// ---- phase_of ---------------------------------------------------------------

TEST(PhaseOfTest, ClassifiesBlockSpanVocabulary) {
  EXPECT_EQ(obs::phase_of("proj.3"), "qkv");
  EXPECT_EQ(obs::phase_of("bwd.qkv_proj.1"), "qkv");
  EXPECT_EQ(obs::phase_of("a2a.0"), "all2all");
  EXPECT_EQ(obs::phase_of("a2a_back.2"), "all2all");
  EXPECT_EQ(obs::phase_of("bwd.a2a_qkv.1"), "all2all");
  EXPECT_EQ(obs::phase_of("attn.1.0"), "attention");
  EXPECT_EQ(obs::phase_of("bwd.attn.0.3"), "attention");
  EXPECT_EQ(obs::phase_of("post.0"), "ffn");
  EXPECT_EQ(obs::phase_of("bwd.ffn.2"), "ffn");
  EXPECT_EQ(obs::phase_of("bwd.out_proj.0"), "ffn");
  EXPECT_EQ(obs::phase_of("fetch.k.0.1"), "fetch");
  EXPECT_EQ(obs::phase_of("offload.v.0.1"), "offload");
  EXPECT_EQ(obs::phase_of("embed"), "embed");
  EXPECT_EQ(obs::phase_of("bwd.embed"), "embed");
  EXPECT_EQ(obs::phase_of("loss"), "loss");
  EXPECT_EQ(obs::phase_of("optimizer"), "optimizer");
  EXPECT_EQ(obs::phase_of("mystery"), "other");
}

// ---- Profiled step: bit-identical and complete ------------------------------

// One step of `strategy` untraced and one traced (same seed and tokens) must
// give bit-identical losses and gradients. Leaves the tracer on with the
// traced step's events; `labels` gets its rank-0 compute-stream spans.
void expect_traced_step_bit_identical(parallel::Strategy strategy,
                                      std::vector<std::string>* labels) {
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  const int world = 2;
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = 2;
  data::SyntheticCorpus corpus(cfg.vocab, 11);
  const std::vector<std::int32_t> tokens = corpus.sample(2 * world * fcfg.chunks_per_rank * 8 + 1);

  // Reference: same seed, tracer off.
  obs::Tracer::instance().set_enabled(false);
  nn::Model plain_model(cfg, 42);
  const auto plain = parallel::make_trainer(strategy, plain_model, world, fcfg);
  const double plain_loss = plain->train_step_grads(tokens);

  // Profiled: tracer on for the whole step.
  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_enabled(true);
  nn::Model traced_model(cfg, 42);
  const auto traced = parallel::make_trainer(strategy, traced_model, world, fcfg);
  const double traced_loss = traced->train_step_grads(tokens);
  traced->env().synchronize_streams();
  for (const runtime::StreamSpan& sp : traced->env().device(0).compute_stream().spans()) {
    labels->push_back(sp.label);
  }

  EXPECT_EQ(plain_loss, traced_loss);  // bit-identical, not just close
  std::vector<const nn::Param*> plain_params, traced_params;
  plain_model.visit_params([&](nn::Param& p) { plain_params.push_back(&p); });
  traced_model.visit_params([&](nn::Param& p) { traced_params.push_back(&p); });
  ASSERT_EQ(plain_params.size(), traced_params.size());
  for (std::size_t i = 0; i < plain_params.size(); ++i) {
    const Tensor& a = plain_params[i]->grad;
    const Tensor& b = traced_params[i]->grad;
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t k = 0; k < a.numel(); ++k) {
      ASSERT_EQ(a.data()[k], b.data()[k]) << plain_params[i]->name << "[" << k << "]";
    }
  }
}

TEST(TracerTest, CollectiveInstantsSitAtTheirSpanStart) {
  // A collective's trace instant is emitted from the compute-stream span
  // that prices it, so it lands where that span starts on the rank's lane —
  // not at the rank's clock when the group ran the collective (Ulysses
  // drains its compute spans at step end, which stamped every instant 0).
  TracerWindow window;
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  const int world = 2;
  data::SyntheticCorpus corpus(cfg.vocab, 11);
  nn::Model model(cfg, 42);
  const auto trainer =
      parallel::make_trainer(parallel::Strategy::kUlysses, model, world, core::FpdtConfig{});
  trainer->train_step_grads(corpus.sample(world * 16 + 1));
  trainer->env().synchronize_streams();
  std::vector<double> instants, spans;
  for (const obs::TraceEvent& ev : obs::Tracer::instance().events()) {
    if (ev.rank != 0 || ev.name.rfind("a2a ", 0) != 0) continue;
    (ev.kind == obs::TraceEvent::Kind::kInstant ? instants : spans).push_back(ev.ts_s);
  }
  ASSERT_FALSE(spans.empty());
  ASSERT_EQ(instants.size(), spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k) EXPECT_EQ(instants[k], spans[k]) << "a2a #" << k;
  EXPECT_GT(spans.back(), 0.0);
}

TEST(ProfilerTest, ProfiledFpdtStepBitIdenticalToUnprofiled) {
  for (const parallel::Strategy s : parallel::kStrategies) {
    SCOPED_TRACE(parallel::strategy_name(s));
    TracerWindow window;
    std::vector<std::string> labels;
    expect_traced_step_bit_identical(s, &labels);
    // Every strategy prices the trainer's own phases, once per rank and step.
    for (const char* phase : {"embed", "loss", "bwd.embed"}) {
      EXPECT_EQ(std::count(labels.begin(), labels.end(), phase), 1) << phase;
    }
    if (s != parallel::Strategy::kFpdt) continue;
    // The FPDT step's trace covers every built-in category on both ranks.
    std::set<std::string> cats;
    std::set<int> ranks;
    for (const obs::TraceEvent& ev : obs::Tracer::instance().events()) {
      cats.insert(ev.category);
      if (ev.rank >= 0) ranks.insert(ev.rank);
    }
    EXPECT_TRUE(cats.count(obs::kCatStream));
    EXPECT_TRUE(cats.count(obs::kCatChunk));
    EXPECT_TRUE(cats.count(obs::kCatComm));
    EXPECT_TRUE(cats.count(obs::kCatMemory));
    EXPECT_GE(ranks.size(), 2u);
    EXPECT_TRUE(JsonChecker(obs::Tracer::instance().chrome_trace_json()).valid());
  }
}

TEST(ProfilerTest, RunProfileCompletesForEveryStrategy) {
  for (const parallel::Strategy s : parallel::kStrategies) {
    obs::ProfileOptions opt;
    opt.strategy = parallel::strategy_name(s);
    opt.steps = 1;
    opt.cfg.chunks_per_rank = 2;
    opt.chunk_tokens = 16;
    opt.trace_path.clear();  // no files from unit tests
    opt.metrics_path.clear();
    const obs::ProfileResult res = obs::run_profile(opt);
    ASSERT_EQ(res.steps.size(), 1u) << opt.strategy;
    EXPECT_EQ(res.tokens_per_step, 2 * 2 * 16) << opt.strategy;
    EXPECT_TRUE(std::isfinite(res.final_loss)) << opt.strategy;
    EXPECT_GT(res.final_loss, 0.0) << opt.strategy;
    EXPECT_GT(res.steps[0].hbm_peak_bytes, 0) << opt.strategy;
    EXPECT_TRUE(JsonChecker(res.json(opt)).valid()) << opt.strategy;
  }
}

TEST(ProfilerTest, UnknownStrategyThrowsBeforeTouchingGlobalState) {
  obs::MetricsRegistry::global().gauge("test.sentinel").set(7.0);
  TracerWindow window;
  obs::Tracer::instance().instant(obs::kCatPhase, "sentinel", 0, "test");
  const std::size_t events_before = obs::Tracer::instance().events().size();
  obs::ProfileOptions opt;
  opt.strategy = "bogus";
  opt.trace_path.clear();
  opt.metrics_path.clear();
  try {
    obs::run_profile(opt);
    FAIL() << "unknown strategy accepted";
  } catch (const FpdtError& e) {
    const std::string msg = e.what();
    for (const parallel::Strategy s : parallel::kStrategies) {
      EXPECT_NE(msg.find(parallel::strategy_name(s)), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("test.sentinel").value(), 7.0);
  EXPECT_EQ(obs::Tracer::instance().events().size(), events_before);
  EXPECT_TRUE(obs::tracing_enabled());
}

TEST(ProfilerTest, RunProfileReportsOverlapFromTimelineReport) {
  obs::ProfileOptions opt;
  opt.steps = 1;
  opt.world = 2;
  opt.cfg.chunks_per_rank = 2;
  opt.chunk_tokens = 16;
  opt.trace_path.clear();    // no files from unit tests
  opt.metrics_path.clear();
  const obs::ProfileResult res = obs::run_profile(opt);
  ASSERT_EQ(res.steps.size(), 1u);
  const obs::StepStats& st = res.steps[0];
  // One source of truth: StepStats' ratio is the TimelineReport's.
  const double transfer = st.h2d_busy_s + st.d2h_busy_s;
  ASSERT_GT(transfer, 0.0);
  EXPECT_DOUBLE_EQ(st.overlap_ratio, st.hidden_transfer_s / transfer);
  EXPECT_DOUBLE_EQ(st.exposed_transfer_s, transfer - st.hidden_transfer_s);
  // ...and the registry gauge agrees with it.
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::global().gauge("overlap.ratio", "rank=0").value(),
                   st.overlap_ratio);
  EXPECT_GT(st.tokens_per_s, 0.0);
  EXPECT_GT(st.hbm_peak_bytes, 0);
  EXPECT_GT(st.all2all_bytes, 0);
  EXPECT_FALSE(obs::tracing_enabled());  // run_profile restores the flag
  EXPECT_TRUE(JsonChecker(res.json(opt)).valid());
}

TEST(ProfilerTest, RepeatedProfileGivesByteIdenticalTrace) {
  // Lanes are numbered and events ordered by sorted keys, not by which rank
  // thread reached the trace buffer first, and the trace holds no host-clock
  // figure: the document is a function of the run alone.
  obs::ProfileOptions opt;
  opt.steps = 2;
  opt.world = 4;
  opt.cfg.chunks_per_rank = 2;
  opt.chunk_tokens = 16;
  opt.trace_path.clear();  // no files from unit tests
  opt.metrics_path.clear();
  obs::run_profile(opt);
  const std::string first = obs::Tracer::instance().chrome_trace_json();
  obs::run_profile(opt);
  const std::string second = obs::Tracer::instance().chrome_trace_json();
  ASSERT_GT(first.size(), 1000u);
  const auto diff = std::mismatch(first.begin(), first.end(), second.begin(), second.end());
  EXPECT_TRUE(first == second) << "traces differ from byte " << (diff.first - first.begin())
                               << ": " << std::string(diff.first, first.end()).substr(0, 120);
}

// ---- Workmeter --------------------------------------------------------------

// RAII meter window mirroring TracerWindow: zeroed, enabled, and guaranteed
// disabled again on exit so other suites never observe a leaked enable.
struct MeterWindow {
  MeterWindow() {
    obs::Workmeter::instance().reset();
    obs::Workmeter::instance().set_enabled(true);
  }
  ~MeterWindow() { obs::Workmeter::instance().set_enabled(false); }
};

TEST(WorkmeterTest, ChargePhaseAttributionAndSince) {
  MeterWindow window;
  obs::Workmeter& meter = obs::Workmeter::instance();
  const obs::WorkSnapshot base = meter.snapshot();

  {
    obs::MeterPhase phase("test.phase_a");
    meter.charge(obs::OpKind::kGemm, {100, 40});
    meter.charge(obs::OpKind::kGemm, {20, 8});
  }
  meter.charge(obs::OpKind::kNorm, {7, 3});  // outside any phase span

  const obs::WorkSnapshot w = meter.snapshot().since(base);
  const int gemm = static_cast<int>(obs::OpKind::kGemm);
  const int norm = static_cast<int>(obs::OpKind::kNorm);
  EXPECT_EQ(w.kind[gemm].flops, 120);
  EXPECT_EQ(w.kind[gemm].bytes, 48);
  EXPECT_EQ(w.calls[gemm], 2);
  EXPECT_EQ(w.kind[norm].flops, 7);
  EXPECT_EQ(w.calls[norm], 1);
  EXPECT_EQ(w.total_flops(), 127);
  EXPECT_EQ(w.total_bytes(), 51);
  ASSERT_TRUE(w.phase.count("test.phase_a"));
  EXPECT_EQ(w.phase.at("test.phase_a").flops, 120);
  ASSERT_TRUE(w.phase.count("unattributed"));
  EXPECT_EQ(w.phase.at("unattributed").flops, 7);
}

TEST(WorkmeterTest, TraceScopePhaseTagsWorkWithoutTracer) {
  // Phase attribution rides the existing FPDT_TRACE_SCOPE(kCatPhase, ...)
  // spans and must work with the *tracer* disabled — metering and tracing
  // are independent switches.
  obs::Tracer::instance().set_enabled(false);
  MeterWindow window;
  obs::Workmeter& meter = obs::Workmeter::instance();
  const obs::WorkSnapshot base = meter.snapshot();
  {
    FPDT_TRACE_SCOPE(obs::kCatPhase, "blocks.forward");
    meter.charge(obs::OpKind::kAttention, {50, 10});
  }
  meter.charge(obs::OpKind::kAttention, {5, 1});  // after scope exit
  const obs::WorkSnapshot w = meter.snapshot().since(base);
  ASSERT_TRUE(w.phase.count("blocks.forward"));
  EXPECT_EQ(w.phase.at("blocks.forward").flops, 50);
  ASSERT_TRUE(w.phase.count("unattributed"));
  EXPECT_EQ(w.phase.at("unattributed").flops, 5);  // tag restored on exit
}

TEST(WorkmeterTest, MeteredDispatchAddsNoAllocations) {
  // The charge path is a relaxed load plus atomic adds on preallocated
  // slots: dispatching through the metered registry backend must allocate
  // exactly as much with the meter on as off — which for an in-place
  // kernel is nothing at all.
  const kernels::Backend& be = kernels::backend("scalar");
  std::vector<float> x(static_cast<std::size_t>(64 * 33), 0.25f);

  obs::Workmeter& meter = obs::Workmeter::instance();
  meter.set_enabled(false);
  be.softmax_rows(x.data(), 64, 33);  // warm-up: lazy init outside the window

  const std::uint64_t before_off = g_alloc_count.load();
  for (int i = 0; i < 8; ++i) be.softmax_rows(x.data(), 64, 33);
  const std::uint64_t off_allocs = g_alloc_count.load() - before_off;

  {
    MeterWindow window;
    obs::MeterPhase phase("test.alloc");  // interned before the window
    const std::uint64_t before_on = g_alloc_count.load();
    for (int i = 0; i < 8; ++i) be.softmax_rows(x.data(), 64, 33);
    const std::uint64_t on_allocs = g_alloc_count.load() - before_on;
    EXPECT_EQ(off_allocs, 0u);
    EXPECT_EQ(on_allocs, 0u);
  }
}

TEST(WorkmeterTest, MeteringDoesNotPerturbTraining) {
  // Same headline guarantee as the tracer: a metered FPDT step is
  // bit-identical to an unmetered one — the meter observes shapes, never
  // touches the math.
  const nn::ModelConfig cfg = nn::tiny_gpt(32, 1, 4, 64);
  const int world = 2;
  core::FpdtConfig fcfg;
  fcfg.chunks_per_rank = 2;
  data::SyntheticCorpus corpus(cfg.vocab, 11);
  const std::vector<std::int32_t> tokens = corpus.sample(2 * world * fcfg.chunks_per_rank * 8 + 1);

  obs::Workmeter::instance().set_enabled(false);
  nn::Model plain_model(cfg, 42);
  core::FpdtTrainer plain(plain_model, world, fcfg);
  const double plain_loss = plain.train_step_grads(tokens);

  double metered_loss = 0.0;
  obs::WorkSnapshot w;
  {
    MeterWindow window;
    nn::Model metered_model(cfg, 42);
    core::FpdtTrainer metered(metered_model, world, fcfg);
    metered_loss = metered.train_step_grads(tokens);
    w = obs::Workmeter::instance().snapshot();
  }

  EXPECT_EQ(plain_loss, metered_loss);  // bit-identical, not just close
  // ...and the step actually charged work in every op family it exercises
  // (standalone softmax_rows is not on the training path — attention's
  // online softmax is charged as kAttention and the loss head fuses its
  // own logsumexp).
  for (int k = 0; k < obs::kOpKinds; ++k) {
    if (static_cast<obs::OpKind>(k) == obs::OpKind::kSoftmax) continue;
    EXPECT_GT(w.calls[k], 0) << obs::op_kind_name(static_cast<obs::OpKind>(k));
    EXPECT_GT(w.kind[k].flops, 0) << obs::op_kind_name(static_cast<obs::OpKind>(k));
  }
}

// ---- Histogram percentiles --------------------------------------------------

TEST(MetricsTest, HistogramPercentilesMatchSortedOracle) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  std::vector<double> vals;
  std::uint64_t state = 12345;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double v = static_cast<double>(state >> 11) / static_cast<double>(1ULL << 53) * 100.0;
    vals.push_back(v);
    h.observe(v);
  }
  std::vector<double> sorted = vals;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.001, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * 1000.0))));
    EXPECT_DOUBLE_EQ(h.percentile(q), sorted[rank - 1]) << "q=" << q;  // exact, not approximate
  }
  // The registry snapshot carries the same exact percentiles.
  for (const obs::MetricsRegistry::Entry& e : reg.snapshot()) {
    if (e.name != "lat") continue;
    EXPECT_DOUBLE_EQ(e.p50, h.percentile(0.5));
    EXPECT_DOUBLE_EQ(e.p95, h.percentile(0.95));
    EXPECT_DOUBLE_EQ(e.p99, h.percentile(0.99));
  }
  EXPECT_TRUE(JsonChecker(reg.json()).valid()) << reg.json();
}

TEST(MetricsTest, HistogramPercentileOverflowFallsBackToBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("big");
  // Exceed the exact-sample retention cap so percentile() takes the bucket
  // interpolation path; the estimate must stay inside the observed range.
  const std::int64_t n = static_cast<std::int64_t>(obs::Histogram::kMaxExactSamples) + 500;
  for (std::int64_t i = 0; i < n; ++i) h.observe(1.0 + static_cast<double>(i % 1000));
  ASSERT_GT(h.count(), static_cast<std::int64_t>(obs::Histogram::kMaxExactSamples));
  for (const double q : {0.5, 0.95, 0.99}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, h.min()) << "q=" << q;
    EXPECT_LE(p, h.max()) << "q=" << q;
  }
}

TEST(MetricsTest, BucketLabelsAreHalfOpenWithOpenTop) {
  EXPECT_EQ(obs::Histogram::bucket_label(0), "[0,1)");
  EXPECT_EQ(obs::Histogram::bucket_label(1), "[1,2)");
  EXPECT_EQ(obs::Histogram::bucket_label(5), "[16,32)");
  EXPECT_EQ(obs::Histogram::bucket_label(21), "[1048576,2^21)");
  // The top bucket's upper edge is open — it absorbs everything upward.
  EXPECT_EQ(obs::Histogram::bucket_label(obs::Histogram::kBuckets - 1), "[2^62,+inf)");
  EXPECT_EQ(obs::Histogram::bucket_label(99), "[2^62,+inf)");  // clamped
}

// ---- Roofline / phase work in the profiler ----------------------------------

TEST(ProfilerTest, RunProfileCarriesRooflineAndPhaseWork) {
  obs::ProfileOptions opt;
  opt.steps = 1;
  opt.world = 2;
  opt.cfg.chunks_per_rank = 2;
  opt.chunk_tokens = 16;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  const obs::ProfileResult res = obs::run_profile(opt);
  ASSERT_EQ(res.steps.size(), 1u);
  const obs::StepStats& st = res.steps[0];

  EXPECT_GT(st.flops, 0);
  EXPECT_GT(st.op_bytes, 0);
  EXPECT_GT(st.mfu, 0.0);
  EXPECT_LE(st.mfu, 1.0);
  EXPECT_GT(st.achieved_gbps, 0.0);
  EXPECT_GT(st.arith_intensity, 0.0);
  EXPECT_GE(st.parallel_efficiency, 0.0);

  // Phase attribution is a partition: per-phase FLOPs sum to the step's
  // total, and per-phase MFU contributions sum to the step MFU.
  std::int64_t phase_flop_sum = 0;
  double phase_mfu_sum = 0.0;
  for (const auto& [phase, f] : st.phase_flops) phase_flop_sum += f;
  for (const auto& [phase, m] : st.phase_mfu) phase_mfu_sum += m;
  EXPECT_EQ(phase_flop_sum, st.flops);
  EXPECT_NEAR(phase_mfu_sum, st.mfu, 1e-12);
  // The trainer's phase spans attribute the bulk of the work: the forward
  // and backward block phases must both appear with real FLOPs.
  ASSERT_TRUE(st.phase_flops.count("blocks.forward"));
  ASSERT_TRUE(st.phase_flops.count("blocks.backward"));
  EXPECT_GT(st.phase_flops.at("blocks.forward"), 0);
  EXPECT_GT(st.phase_flops.at("blocks.backward"), 0);

  EXPECT_FALSE(obs::work_metering_enabled());  // run_profile restores the flag
  EXPECT_TRUE(JsonChecker(res.json(opt)).valid());
}

// ---- One cost source for the virtual clock ---------------------------------

// Every virtual-clock field of two StepStats, compared bitwise (host times
// are the only fields allowed to differ).
void expect_same_virtual_clock(const obs::StepStats& a, const obs::StepStats& b) {
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.virtual_step_s, b.virtual_step_s);
  EXPECT_EQ(a.tokens_per_s, b.tokens_per_s);
  EXPECT_EQ(a.compute_busy_s, b.compute_busy_s);
  EXPECT_EQ(a.h2d_busy_s, b.h2d_busy_s);
  EXPECT_EQ(a.d2h_busy_s, b.d2h_busy_s);
  EXPECT_EQ(a.hidden_transfer_s, b.hidden_transfer_s);
  EXPECT_EQ(a.exposed_transfer_s, b.exposed_transfer_s);
  EXPECT_EQ(a.overlap_ratio, b.overlap_ratio);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
  EXPECT_EQ(a.all2all_bytes, b.all2all_bytes);
  EXPECT_EQ(a.intra_link_bytes, b.intra_link_bytes);
  EXPECT_EQ(a.inter_link_bytes, b.inter_link_bytes);
  EXPECT_EQ(a.inter_bw_util, b.inter_bw_util);
  EXPECT_EQ(a.hbm_peak_bytes, b.hbm_peak_bytes);
  EXPECT_EQ(a.phase_s, b.phase_s);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.op_bytes, b.op_bytes);
  EXPECT_EQ(a.mfu, b.mfu);
  EXPECT_EQ(a.phase_flops, b.phase_flops);
  EXPECT_EQ(a.phase_mfu, b.phase_mfu);
}

// One metered, profiled step of an FpdtTrainer under `cfg` and `factory`;
// `span_flops` gets the FLOPs recorded on every rank's compute spans.
obs::StepStats profiled_step(const core::FpdtConfig& cfg, core::BlockExecutorFactory factory,
                             std::int64_t* span_flops) {
  const nn::ModelConfig mcfg = nn::tiny_gpt(32, 2, 4, 64);
  const int world = 2;
  data::SyntheticCorpus corpus(mcfg.vocab, 5);
  const std::vector<std::int32_t> tokens =
      corpus.sample(world * cfg.chunks_per_rank * 16 + 1);
  nn::Model model(mcfg, 42);
  core::FpdtTrainer trainer(model, world, cfg, -1, factory);
  obs::StepProfiler profiler(trainer.env());
  obs::Workmeter::instance().set_enabled(true);
  profiler.begin_step();
  const double loss = trainer.train_step_grads(tokens);
  const obs::StepStats st =
      profiler.end_step(0, static_cast<std::int64_t>(tokens.size()) - 1, loss);
  obs::Workmeter::instance().set_enabled(false);
  *span_flops = 0;
  for (int r = 0; r < world; ++r) {
    for (const runtime::StreamSpan& sp : trainer.env().device(r).compute_stream().spans()) {
      *span_flops += sp.flops;
    }
  }
  return st;
}

class StrategyClock : public ::testing::TestWithParam<parallel::Strategy> {};

TEST_P(StrategyClock, OneCostSourceCoversTheStep) {
  const parallel::Strategy s = GetParam();

  // Tracing observes the clock without moving it.
  obs::ProfileOptions opt;
  opt.strategy = parallel::strategy_name(s);
  opt.steps = 1;
  opt.cfg.chunks_per_rank = 2;
  opt.chunk_tokens = 16;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  opt.trace = false;
  const obs::StepStats untraced = obs::run_profile(opt).steps.at(0);
  opt.trace = true;
  const obs::StepStats traced = obs::run_profile(opt).steps.at(0);
  expect_same_virtual_clock(untraced, traced);

  // The clock covers the whole step, not just the optimizer sweep.
  ASSERT_TRUE(untraced.phase_s.count("optimizer"));
  EXPECT_GT(untraced.virtual_step_s, 2.0 * untraced.phase_s.at("optimizer"));
  for (const char* phase : {"embed", "loss", "qkv", "attention", "ffn"}) {
    EXPECT_GT(untraced.phase_s.count(phase), 0u) << phase;
  }

  // Every FLOP the Workmeter charged priced exactly one compute span.
  core::FpdtConfig cfg;
  cfg.chunks_per_rank = 2;
  cfg = parallel::strategy_config(s, cfg);
  std::int64_t span_flops = 0;
  const obs::StepStats st = profiled_step(cfg, parallel::executor_factory(s), &span_flops);
  EXPECT_GT(st.flops, 0);
  EXPECT_EQ(span_flops, st.flops);

  // Without offload the stream-prefetch flag moves nothing: a preset
  // that turns it off prices the step exactly as one that leaves it on.
  if (!cfg.offload) {
    core::FpdtConfig streamed = cfg;
    streamed.stream_prefetch = !cfg.stream_prefetch;
    std::int64_t streamed_flops = 0;
    expect_same_virtual_clock(
        st, profiled_step(streamed, parallel::executor_factory(s), &streamed_flops));
    EXPECT_EQ(streamed_flops, span_flops);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyClock, ::testing::ValuesIn(parallel::kStrategies),
                         [](const ::testing::TestParamInfo<parallel::Strategy>& info) {
                           std::string name = parallel::strategy_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(TracerTest, PerfCountersInterleaveWithSpansInJson) {
  TracerWindow window;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.complete(obs::kCatStream, "span_a", 0, "compute", 0.0, 1.0);
  tracer.counter(obs::kCatPerf, "mfu", 0, 0.42);
  tracer.counter(obs::kCatPerf, "achieved_gbps", 0, 12.5);
  tracer.complete(obs::kCatStream, "span_b", 0, "compute", 1.0, 2.0);

  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter events
  EXPECT_NE(json.find("\"mfu\""), std::string::npos);
  EXPECT_NE(json.find(obs::kCatPerf), std::string::npos);
}

}  // namespace
}  // namespace fpdt
