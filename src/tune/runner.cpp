#include "tune/runner.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/profiler.h"

namespace fpdt::tune {

namespace {

constexpr const char* kCacheMagic = "FPDTTUNE1";

// Exact double round-trip via the IEEE-754 bit pattern in hex.
std::string bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

bool bits_to(const std::string& s, double* v) {
  if (s.size() != 16) return false;
  std::uint64_t u = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    u = (u << 4) | static_cast<std::uint64_t>(d);
  }
  std::memcpy(v, &u, sizeof(u));
  return true;
}

}  // namespace

std::uint64_t Runner::fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Runner::Runner(TuneRequest req) : req_(std::move(req)) { load_cache(); }

std::string Runner::cache_key(const Candidate& c) const {
  std::ostringstream os;
  os << "model=" << req_.model.name << "/" << req_.model.d_model << "x" << req_.model.n_layer
     << "h" << req_.model.n_head << "kv" << req_.model.n_kv_head << "f" << req_.model.ffn_hidden
     << "v" << req_.model.vocab << ";world=" << req_.world << ";seq=" << req_.s_global
     << ";steps=" << req_.steps << ";seed=" << req_.seed << ";" << c.cfg.canonical();
  return os.str();
}

Measurement Runner::run(const Candidate& c) {
  const std::string key = cache_key(c);
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    Measurement m = it->second;
    m.from_cache = true;
    return m;
  }

  obs::ProfileOptions opt;
  opt.steps = req_.steps;
  opt.world = req_.world;
  opt.cfg = c.cfg;
  opt.chunk_tokens = req_.s_global / (static_cast<std::int64_t>(req_.world) *
                                      c.cfg.chunks_per_rank);
  opt.seed = req_.seed;
  opt.trace = false;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  opt.model = req_.model;

  const obs::ProfileResult res = obs::run_profile(opt);
  FPDT_CHECK(!res.steps.empty()) << " candidate " << c.label << " produced no steps";
  const obs::StepStats& last = res.steps.back();

  Measurement m;
  m.virtual_step_s = last.virtual_step_s;
  m.tokens_per_s = last.tokens_per_s;
  m.overlap_ratio = last.overlap_ratio;
  m.hbm_peak_bytes = last.hbm_peak_bytes;
  m.loss = last.loss;
  ++executed_;
  cache_.emplace(key, m);
  if (!req_.cache_path.empty()) save_cache();
  return m;
}

void Runner::load_cache() {
  if (req_.cache_path.empty()) return;
  std::ifstream in(req_.cache_path);
  if (!in) return;  // cold cache
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string magic, hash, key, step_s, tok_s, overlap, loss;
    std::int64_t hbm = 0;
    if (!(is >> magic >> hash >> key >> step_s >> tok_s >> overlap >> hbm >> loss)) continue;
    if (magic != kCacheMagic) continue;
    Measurement m;
    if (!bits_to(step_s, &m.virtual_step_s) || !bits_to(tok_s, &m.tokens_per_s) ||
        !bits_to(overlap, &m.overlap_ratio) || !bits_to(loss, &m.loss)) {
      continue;  // corrupt line: drop it, re-measure on demand
    }
    m.hbm_peak_bytes = hbm;
    // Tamper check: the hash must match the key it claims to cover.
    char want[20];
    std::snprintf(want, sizeof(want), "%016llx",
                  static_cast<unsigned long long>(fnv1a(key)));
    if (hash != want) continue;
    cache_.emplace(std::move(key), m);
  }
}

void Runner::save_cache() const {
  std::ofstream out(req_.cache_path, std::ios::trunc);
  FPDT_CHECK(out.good()) << " cannot write tune cache " << req_.cache_path;
  for (const auto& [key, m] : cache_) {
    char hash[20];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(fnv1a(key)));
    out << kCacheMagic << " " << hash << " " << key << " " << bits_of(m.virtual_step_s) << " "
        << bits_of(m.tokens_per_s) << " " << bits_of(m.overlap_ratio) << " "
        << m.hbm_peak_bytes << " " << bits_of(m.loss) << "\n";
  }
}

}  // namespace fpdt::tune
