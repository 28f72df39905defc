#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/workmeter.h"

namespace fpdt::obs {

std::atomic<bool> g_trace_enabled{false};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) { g_trace_enabled.store(on, std::memory_order_relaxed); }

void Tracer::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(capacity, 1);
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

std::size_t Tracer::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
  clocks_.clear();
}

void Tracer::push_locked(TraceEvent ev) {
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(ev));
}

void Tracer::complete(std::string category, std::string name, int rank, std::string track,
                      double start_s, double dur_s, double value, bool has_value) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kComplete;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.track = std::move(track);
  ev.rank = rank;
  ev.ts_s = start_s;
  ev.dur_s = dur_s;
  ev.value = value;
  ev.has_value = has_value;
  std::lock_guard<std::mutex> lock(mutex_);
  double& clock = clocks_[rank];
  clock = std::max(clock, start_s + dur_s);
  push_locked(std::move(ev));
}

void Tracer::instant(std::string category, std::string name, int rank, std::string track,
                     double value, bool has_value) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.track = std::move(track);
  ev.rank = rank;
  ev.value = value;
  ev.has_value = has_value;
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = clocks_.find(rank); it != clocks_.end()) ev.ts_s = it->second;
  push_locked(std::move(ev));
}

void Tracer::counter(std::string category, std::string name, int rank, double value,
                     int clock_rank) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kCounter;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.rank = rank;
  ev.value = value;
  ev.has_value = true;
  std::lock_guard<std::mutex> lock(mutex_);
  const int cr = clock_rank == kClockOfRank ? rank : clock_rank;
  if (auto it = clocks_.find(cr); it != clocks_.end()) ev.ts_s = it->second;
  push_locked(std::move(ev));
}

void Tracer::counter_change(std::string category, std::string name, int rank, double total,
                            double delta, int clock_rank) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kCounter;
  ev.category = std::move(category);
  ev.name = std::move(name);
  ev.rank = rank;
  ev.value = total;
  ev.has_value = true;
  ev.has_delta = true;
  ev.delta = delta;
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = clocks_.find(clock_rank); it != clocks_.end()) ev.ts_s = it->second;
  push_locked(std::move(ev));
}

double Tracer::clock(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clocks_.find(rank);
  return it == clocks_.end() ? 0.0 : it->second;
}

void Tracer::advance_clock(int rank, double t) {
  std::lock_guard<std::mutex> lock(mutex_);
  double& clock = clocks_[rank];
  clock = std::max(clock, t);
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<TraceEvent>(events_.begin(), events_.end());
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

namespace {

// Minimal JSON string escape: the trace names are ASCII labels, but chunk
// keys and user scope names must not be able to break the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Chrome trace pid for a rank: ranks map to themselves, node-level events
// (host pool) get a dedicated high pid so Perfetto shows a "node" process.
int pid_of(int rank) { return rank >= 0 ? rank : 9999; }

// Bit pattern of a double: a total order (NaN included) that matches the
// numeric one for the non-negative timestamps the trace holds.
std::uint64_t order_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// A total order over every field an event writes, so sorting by it makes
// the document independent of the order threads recorded the events in.
bool event_before(const TraceEvent& a, const TraceEvent& b) {
  const auto key = [](const TraceEvent& e) {
    // A shared counter's recorded total depends on thread interleaving;
    // its delta does not, and its exported value is rebuilt from deltas.
    return std::make_tuple(pid_of(e.rank), std::cref(e.track), order_bits(e.ts_s),
                           order_bits(e.dur_s), static_cast<int>(e.kind), std::cref(e.name),
                           std::cref(e.category), e.has_value, e.has_delta,
                           order_bits(e.has_delta ? e.delta : e.value));
  };
  return key(a) < key(b);
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> evs = events();
  // Shared counters start from the total before their first recorded
  // change (the total when tracing began, unless the ring dropped events).
  std::map<std::pair<int, std::string>, double> shared_totals;
  for (const TraceEvent& ev : evs) {
    if (!ev.has_delta) continue;
    shared_totals.emplace(std::make_pair(pid_of(ev.rank), ev.name), ev.value - ev.delta);
  }
  std::sort(evs.begin(), evs.end(), event_before);
  for (TraceEvent& ev : evs) {
    if (!ev.has_delta) continue;
    double& total = shared_totals[std::make_pair(pid_of(ev.rank), ev.name)];
    total += ev.delta;
    ev.value = total;
  }

  // One lane per (pid, track), numbered in sorted key order: the numbering
  // must not depend on which thread's event reached the buffer first.
  std::map<std::pair<int, std::string>, int> tids;
  for (const TraceEvent& ev : evs) {
    if (ev.kind == TraceEvent::Kind::kCounter) continue;
    tids.emplace(std::make_pair(pid_of(ev.rank), ev.track), 0);
  }
  int next_tid = 0;
  for (auto& [key, tid] : tids) tid = next_tid++;
  const auto tid_of = [&tids](int pid, const std::string& track) {
    return tids.at(std::make_pair(pid, track));
  };

  std::ostringstream os;
  os.precision(12);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (const TraceEvent& ev : evs) {
    const int pid = pid_of(ev.rank);
    sep();
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\"" << json_escape(ev.category)
       << "\",\"pid\":" << pid;
    switch (ev.kind) {
      case TraceEvent::Kind::kComplete:
        os << ",\"tid\":" << tid_of(pid, ev.track) << ",\"ph\":\"X\",\"ts\":" << ev.ts_s * 1e6
           << ",\"dur\":" << ev.dur_s * 1e6;
        if (ev.has_value) os << ",\"args\":{\"value\":" << ev.value << "}";
        break;
      case TraceEvent::Kind::kInstant:
        os << ",\"tid\":" << tid_of(pid, ev.track) << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
           << ev.ts_s * 1e6;
        if (ev.has_value) os << ",\"args\":{\"value\":" << ev.value << "}";
        break;
      case TraceEvent::Kind::kCounter:
        os << ",\"tid\":0,\"ph\":\"C\",\"ts\":" << ev.ts_s * 1e6 << ",\"args\":{\""
           << json_escape(ev.name) << "\":" << ev.value << "}";
        break;
    }
    os << "}";
  }
  // Process/thread name metadata so Perfetto labels the lanes.
  std::map<int, bool> pids;
  for (const auto& [key, tid] : tids) pids[key.first] = true;
  for (const TraceEvent& ev : evs) pids[pid_of(ev.rank)] = true;
  for (const auto& [pid, unused] : pids) {
    (void)unused;
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\""
       << (pid == pid_of(kNodeRank) ? std::string("node") : "rank " + std::to_string(pid))
       << "\"}}";
  }
  for (const auto& [key, tid] : tids) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first << ",\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(key.second) << "\"}}";
  }
  os << "]}";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << chrome_trace_json();
  FPDT_CHECK(out.good()) << " cannot write trace to " << path;
}

TraceScope::TraceScope(const char* category, const char* name, int rank) {
  // Work attribution first: a phase span tags the thread for the workmeter
  // whenever metering is on, regardless of whether a trace is recording.
  // strcmp (not pointer compare): callers may pass their own "phase" literal.
  if (work_metering_enabled() && std::strcmp(category, kCatPhase) == 0) {
    phase_tagged_ = true;
    prev_phase_ = current_work_phase();
    set_current_work_phase(Workmeter::instance().intern_phase(name));
  }
  if (!tracing_enabled()) return;
  active_ = true;
  category_ = category;
  name_ = name;
  rank_ = rank == kUseCurrentRank ? std::max(current_rank(), 0) : rank;
  start_ = Tracer::instance().clock(rank_);
}

TraceScope::~TraceScope() {
  if (phase_tagged_) set_current_work_phase(prev_phase_);
  if (!active_ || !tracing_enabled()) return;
  Tracer& tracer = Tracer::instance();
  const double end = tracer.clock(rank_);
  tracer.complete(category_, name_, rank_, "cpu", start_, std::max(0.0, end - start_));
}

}  // namespace fpdt::obs
