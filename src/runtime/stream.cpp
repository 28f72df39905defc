#include "runtime/stream.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace fpdt::runtime {

// ---- Event ------------------------------------------------------------------

void Event::wait() const {
  if (stream_ == nullptr) return;
  stream_->drain_through(seq_);
}

double Event::ready_time() const {
  if (stream_ == nullptr) return 0.0;
  return stream_->finish_time_of(seq_);
}

// ---- Stream -----------------------------------------------------------------

Event Stream::enqueue(std::string label, double duration_s, std::vector<Event> waits,
                      std::function<void()> fn, std::int64_t flops) {
  FPDT_CHECK_GE(duration_s, 0.0) << " negative duration on stream " << name_;
  const std::int64_t seq = executed() + static_cast<std::int64_t>(pending_.size());
  pending_.push_back(
      Pending{std::move(label), duration_s, std::move(waits), std::move(fn), flops});
  return Event(this, seq);
}

Event Stream::record() {
  const std::int64_t seq = executed() + static_cast<std::int64_t>(pending_.size()) - 1;
  return seq < 0 ? Event() : Event(this, seq);
}

void Stream::synchronize() {
  while (!pending_.empty()) execute_front();
}

void Stream::discard_pending() {
  // Account the dropped tasks as executed so outstanding Events stay valid
  // (they resolve to "already done" with the current tail time).
  while (!pending_.empty()) {
    spans_.push_back(StreamSpan{std::move(pending_.front().label), tail_, tail_});
    pending_.pop_front();
  }
}

std::vector<std::string> Stream::pending_labels() const {
  std::vector<std::string> out;
  out.reserve(pending_.size());
  for (const Pending& p : pending_) out.push_back(p.label);
  return out;
}

void Stream::drain_through(std::int64_t seq) {
  while (executed() <= seq && !pending_.empty()) execute_front();
}

void Stream::execute_front() {
  Pending task = std::move(pending_.front());
  pending_.pop_front();
  // Resolve timing: FIFO tail plus every waited event's finish. Waiting
  // drains the source stream first, so finish times are known. The wait
  // graph is acyclic because an Event must exist (task enqueued) before it
  // can be waited on.
  double start = tail_;
  for (const Event& e : task.waits) {
    e.wait();
    start = std::max(start, e.ready_time());
  }
  // Fault-injection point: a straggler spike stretches this task's virtual
  // duration — timing only, the side effect is untouched, so results stay
  // bit-identical while the timeline shows the stall.
  double duration = task.duration;
  if (fault::faults_enabled()) {
    duration += fault::FaultInjector::instance().straggler_delay(trace_rank_);
  }
  spans_.push_back(StreamSpan{std::move(task.label), start, start + duration, task.flops});
  tail_ = start + duration;
  if (obs::tracing_enabled()) {
    // Emit the resolved span (and advance the rank's virtual clock) before
    // the side effect runs, so events the closure emits — chunk retirement,
    // pool samples — are stamped at this task's finish time.
    obs::Tracer::instance().complete(obs::kCatStream, spans_.back().label, trace_rank_,
                                     trace_track_.empty() ? name_ : trace_track_,
                                     trace_offset_ + start, duration);
  }
  if (task.fn) task.fn();
}

double Stream::finish_time_of(std::int64_t seq) const {
  if (seq < base_) return 0.0;  // recorded before a timeline reset
  const std::int64_t idx = seq - base_;
  FPDT_CHECK_LT(idx, static_cast<std::int64_t>(spans_.size()))
      << " event queried before its task executed on stream " << name_;
  return spans_[static_cast<std::size_t>(idx)].finish;
}

double Stream::busy_time() const {
  double busy = 0.0;
  for (const StreamSpan& s : spans_) busy += s.duration();
  return busy;
}

void Stream::reset_timeline() {
  FPDT_CHECK(pending_.empty()) << " reset_timeline on busy stream " << name_;
  base_ += static_cast<std::int64_t>(spans_.size());
  spans_.clear();
  trace_offset_ += tail_;
  tail_ = 0.0;
}

// ---- Transfer-timeline report ----------------------------------------------

double overlapped_time(const std::vector<StreamSpan>& xs, const std::vector<StreamSpan>& busy) {
  double total = 0.0;
  std::size_t b = 0;
  for (const StreamSpan& x : xs) {
    while (b < busy.size() && busy[b].finish <= x.start) ++b;
    for (std::size_t k = b; k < busy.size() && busy[k].start < x.finish; ++k) {
      total += std::max(0.0, std::min(x.finish, busy[k].finish) -
                                 std::max(x.start, busy[k].start));
    }
  }
  return total;
}

TimelineReport make_timeline_report(const Stream& compute, const Stream& h2d,
                                    const Stream& d2h) {
  FPDT_CHECK(compute.idle() && h2d.idle() && d2h.idle())
      << " synchronize streams before building a timeline report";
  TimelineReport r;
  r.makespan_s = std::max({compute.tail_time(), h2d.tail_time(), d2h.tail_time()});
  r.compute_busy_s = compute.busy_time();
  r.h2d_busy_s = h2d.busy_time();
  r.d2h_busy_s = d2h.busy_time();
  // Clamp against floating-point drift and degenerate ledgers (empty or
  // all-zero-duration spans): hidden can never exceed the transfer busy
  // time, and exposed can never go negative.
  r.hidden_transfer_s = std::min(overlapped_time(h2d.spans(), compute.spans()) +
                                     overlapped_time(d2h.spans(), compute.spans()),
                                 r.transfer_busy_s());
  r.exposed_transfer_s = std::max(0.0, r.transfer_busy_s() - r.hidden_transfer_s);
  return r;
}

std::string TimelineReport::to_string() const {
  std::ostringstream os;
  os << "stream timeline (virtual): makespan " << format_seconds(makespan_s) << "\n"
     << "  busy  compute " << format_seconds(compute_busy_s) << "  h2d "
     << format_seconds(h2d_busy_s) << "  d2h " << format_seconds(d2h_busy_s) << "\n"
     << "  transfer hidden behind compute " << format_seconds(hidden_transfer_s) << " / "
     << format_seconds(transfer_busy_s()) << "  (overlap ratio " << overlap_ratio()
     << ", exposed "
     << format_seconds(exposed_transfer_s) << ")\n";
  return os.str();
}

}  // namespace fpdt::runtime
