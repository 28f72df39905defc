#include "core/chunk_prefetcher.h"

#include <exception>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "obs/trace.h"

namespace fpdt::core {

using runtime::Buffer;
using runtime::Device;
using runtime::Event;
using runtime::StagingCharge;

namespace {

// Chunk-lifecycle trace marker on the owning rank's "chunk" lane; value is
// the chunk's logical byte size. Issue markers land at the rank's current
// virtual clock; retire markers fire inside stream closures, which run
// right after the stream span advanced the clock to the transfer's finish.
void trace_chunk(const char* what, const std::string& key, int rank, std::int64_t bytes) {
  if (!obs::tracing_enabled()) return;
  obs::Tracer::instance().instant(obs::kCatChunk, std::string(what) + " " + key, rank, "chunk",
                                  static_cast<double>(bytes), true);
}

}  // namespace

ChunkPrefetcher::ChunkPrefetcher(ChunkStore& store, bool use_streams,
                                 std::int64_t max_in_flight)
    : store_(&store),
      // A resident (non-offloading) store migrates nothing; there is no
      // transfer to overlap, so streams mode degrades to sync.
      use_streams_(use_streams && store.offload()),
      max_in_flight_(max_in_flight) {}

ChunkPrefetcher::~ChunkPrefetcher() {
  if (std::uncaught_exceptions() > 0) {
    // Unwinding (typically an OOM mid-pipeline): executing deferred work
    // now could throw again. Drop it — closure destruction releases the
    // captured staging charges and tensors.
    Device& dev = store_->device();
    dev.h2d_stream().discard_pending();
    dev.d2h_stream().discard_pending();
    return;
  }
  synchronize();
}

void ChunkPrefetcher::synchronize() {
  Device& dev = store_->device();
  dev.h2d_stream().synchronize();
  dev.d2h_stream().synchronize();
}

Event ChunkPrefetcher::prefetch(const std::string& key, bool take, std::vector<Event> waits) {
  return issue_fetch(key, take, std::move(waits), /*count_against_cap=*/true);
}

void ChunkPrefetcher::survive_transfer_faults(bool is_fetch, const std::string& key) {
  // Fault-injection point: the draw happens *before* the real migration is
  // issued, and the migration runs exactly once after the draws pass — so
  // transient transfer faults are invisible to byte counters and math; only
  // the retry backoff (charged to the transfer stream by the injector's
  // sink) shows up in the timeline.
  const fault::Site site = is_fetch ? fault::Site::kH2D : fault::Site::kD2H;
  const int rank = store_->device().rank();
  const std::string label = std::string(is_fetch ? "retry.fetch." : "retry.offload.") + key;
  const bool ok = fault::retry_transient(fault::BackoffPolicy{}, rank, label, [&] {
    fault::FaultInjector::instance().maybe_throw(
        site, rank, std::string(is_fetch ? "h2d fetch of " : "d2h offload of ") + key);
  });
  if (!ok) {
    // Retries exhausted: degrade to the sync migration path for the rest of
    // the pass. Sync mode is bit-identical by construction, so training
    // survives with only the overlap lost.
    degraded_ = true;
    fault::FaultInjector::instance().note_degraded("sync_fallback");
    FPDT_LOG_WARN << "rank " << rank << ": transfer retries exhausted on " << key
                  << "; prefetcher degrading to sync migration";
  }
}

Event ChunkPrefetcher::issue_fetch(const std::string& key, bool take, std::vector<Event> waits,
                                   bool count_against_cap) {
  FPDT_CHECK(!fetches_.contains(key)) << " chunk " << key << " already in flight";
  if (count_against_cap) {
    FPDT_CHECK_LT(in_flight(), max_in_flight_)
        << " prefetch window exceeded issuing " << key;
  }
  if (fault::faults_enabled() && streams_active()) {
    survive_transfer_faults(/*is_fetch=*/true, key);
  }

  if (!streams_active()) {
    // Sync mode: migrate inline at this very program point, so pool charges
    // and transfer counters hit exactly where they do without streams.
    // When we degraded mid-pass, a prior async offload of this key may not
    // have retired yet — drain it so the store actually holds the chunk.
    if (Event off = store_->offload_event(key); off.valid()) off.wait();
    InFetch f;
    f.slot = std::make_shared<Buffer>(take ? store_->take(key) : store_->fetch_copy(key));
    trace_chunk("fetch.sync", key, store_->device().rank(), f.slot->bytes());
    fetches_.emplace(key, std::move(f));
    return Event();
  }

  Device& dev = store_->device();

  // Size/dtype of the incoming chunk: from the store, or — if its offload
  // has not retired yet — from the pending-put record. Either way a chained
  // fetch must wait on the offload (write-then-read across streams).
  std::int64_t bytes = 0;
  runtime::Dtype dtype = runtime::Dtype::kBF16;
  if (auto it = pending_puts_.find(key); it != pending_puts_.end()) {
    bytes = it->second.bytes;
    dtype = it->second.dtype;
  } else {
    const Buffer& stored = store_->peek_buffer(key);
    bytes = stored.bytes();
    dtype = stored.dtype();
  }
  if (Event off = store_->offload_event(key); off.valid()) waits.push_back(off);

  // Issue-time accounting: transfer counters and the destination staging
  // reserve (the honest OOM point) — exactly where the sync path charges.
  dev.transfers().h2d_bytes += bytes;
  dev.transfers().h2d_count += 1;
  trace_chunk(count_against_cap ? "fetch.issue" : "fetch.demand", key, dev.rank(), bytes);
  auto staging = std::make_shared<StagingCharge>(&dev.hbm(), bytes);

  auto slot = std::make_shared<Buffer>();
  ChunkStore* store = store_;
  Device* devp = &dev;
  Event ready = dev.h2d_stream().enqueue(
      "fetch." + key, dev.rates().h2d_time(bytes), std::move(waits),
      [store, devp, slot, staging, key, take, dtype, bytes]() {
        // Retire: the reserve converts into the real data charge (release
        // first — a dip, never a transient double charge).
        staging->release();
        Tensor t = take ? store->extract(key).detach()
                        : store->peek_buffer(key).tensor().clone();
        *slot = devp->alloc(std::move(t), dtype);
        trace_chunk("fetch.retire", key, devp->rank(), bytes);
      });
  fetches_.emplace(key, InFetch{ready, std::move(slot)});
  return ready;
}

ChunkPrefetcher::Fetched ChunkPrefetcher::acquire(const std::string& key, bool take,
                                                  std::vector<Event> waits) {
  auto it = fetches_.find(key);
  if (it == fetches_.end()) {
    // Not prefetched: fetch on the spot, still through the H2D stream so
    // the transfer shows up (as exposed time) in the span ledger.
    issue_fetch(key, take, std::move(waits), /*count_against_cap=*/false);
    it = fetches_.find(key);
  }
  Fetched f;
  f.ready = it->second.ready;
  if (f.ready.valid()) f.ready.wait();
  f.buffer = std::move(*it->second.slot);
  fetches_.erase(it);
  FPDT_CHECK(f.buffer.defined()) << " fetch of " << key << " produced no buffer";
  return f;
}

Event ChunkPrefetcher::put_async(const std::string& key, Buffer buffer,
                                 std::vector<Event> waits) {
  if (fault::faults_enabled() && streams_active()) {
    survive_transfer_faults(/*is_fetch=*/false, key);
  }
  if (!streams_active()) {
    trace_chunk("offload.sync", key, store_->device().rank(), buffer.bytes());
    store_->put(key, std::move(buffer));
    return Event();
  }
  FPDT_CHECK(!store_->contains(key) && !pending_puts_.contains(key))
      << " duplicate chunk key " << key;

  Device& dev = store_->device();
  const std::int64_t bytes = buffer.bytes();
  const runtime::Dtype dtype = buffer.dtype();

  // Issue-time accounting mirrors offload_to_host: the device charge drops
  // now (the chunk is leaving HBM), the D2H counters tick, and the host
  // pool stages the incoming bytes until the transfer retires.
  auto data = std::make_shared<Tensor>(buffer.detach());
  dev.transfers().d2h_bytes += bytes;
  dev.transfers().d2h_count += 1;
  trace_chunk("offload.issue", key, dev.rank(), bytes);
  auto staging = std::make_shared<StagingCharge>(&store_->host().pool(), bytes);

  pending_puts_[key] = PendingPut{bytes, dtype};
  ChunkStore* store = store_;
  ChunkPrefetcher* self = this;
  const int rank = dev.rank();
  Event done = dev.d2h_stream().enqueue(
      "offload." + key, dev.rates().d2h_time(bytes), std::move(waits),
      [store, self, data, staging, key, dtype, bytes, rank]() {
        staging->release();
        store->adopt(key, store->host().alloc(std::move(*data), dtype));
        self->pending_puts_.erase(key);
        trace_chunk("offload.retire", key, rank, bytes);
      });
  store_->set_offload_event(key, done);
  return done;
}

}  // namespace fpdt::core
