// ChunkPrefetcher — double-buffered chunk migration over a ChunkStore.
//
// The paper's pipeline (§3.3, Fig. 8) hides host↔device chunk traffic
// behind attention compute by prefetching chunk j+1 on the H2D stream
// while chunk j computes, and retiring offloads asynchronously on the D2H
// stream. This class is that engine for the executed runtime:
//
//   prefetch(key)  issues the fetch on the device's H2D stream; the
//                  destination bytes are charged to the HBM pool's
//                  *staging* counter at issue — where cudaMallocAsync
//                  would fail — so OOM semantics stay honest while the
//                  transfer is in flight.
//   acquire(key)   waits for the prefetched chunk (the staging charge
//                  converts to a regular data charge when the stream task
//                  retires) and returns the device buffer plus its ready
//                  event, for downstream compute-task dependencies. Keys
//                  that were never prefetched are fetched on the spot —
//                  still through the H2D stream, after the given waits (the
//                  compute that frees the destination buffer), so unhidden
//                  transfers show up as *exposed* time in the timeline
//                  report.
//   put_async(key) detaches the device charge at issue (the compute that
//                  produced the chunk is named by `waits`), stages the
//                  bytes on the destination pool, and adopts the chunk
//                  into the store when the D2H task retires. A later
//                  prefetch of the same key waits on the offload event
//                  (write-then-read ordering across streams).
//
// In sync mode (cfg.stream_prefetch == false, a non-offloading store, or
// after fault-injected transfer retries were exhausted — degraded_, for the
// rest of the pass)
// every call degrades to the store's inline migration at the same program
// point, so byte accounting — and therefore HBM peaks and transfer
// counters — is identical by construction between the two modes; only the
// stream span ledger differs. Side effects always execute on the calling
// thread (streams defer, they do not parallelise), so results are
// bit-identical too.
//
// One prefetcher per rank: it drives that rank's device streams, which are
// single-threaded by the executor's fork/join structure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chunk_store.h"
#include "runtime/stream.h"

namespace fpdt::core {

class ChunkPrefetcher {
 public:
  // `max_in_flight` caps concurrently-prefetched chunks (2 = one KV pair,
  // the double-buffer window). Exceeding it is a programming error.
  ChunkPrefetcher(ChunkStore& store, bool use_streams, std::int64_t max_in_flight = 2);

  ChunkPrefetcher(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher& operator=(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher(ChunkPrefetcher&&) = delete;
  ChunkPrefetcher& operator=(ChunkPrefetcher&&) = delete;

  // Drains in-flight work; during exception unwind, abandons it instead
  // (closures release their staging charges on destruction).
  ~ChunkPrefetcher();

  // Issues an async fetch of `key` to the device. `take` removes the
  // stored chunk (host charge drops at retire); otherwise the host copy
  // survives (fetch_copy semantics). `waits` are cross-stream deps — the
  // double-buffer window event (the compute that freed the target buffer).
  // Returns the H2D completion event (null in sync mode).
  runtime::Event prefetch(const std::string& key, bool take = false,
                          std::vector<runtime::Event> waits = {});

  struct Fetched {
    runtime::Buffer buffer;
    runtime::Event ready;  // H2D completion; null in sync mode
  };

  // Completes the prefetch of `key` (or performs an on-the-spot fetch with
  // the same `take` semantics, after `waits`, if none was issued) and
  // returns the device buffer.
  Fetched acquire(const std::string& key, bool take = false,
                  std::vector<runtime::Event> waits = {});

  // Async store of a device buffer under `key`. Returns the D2H completion
  // event (null in sync mode, where the offload happens inline).
  runtime::Event put_async(const std::string& key, runtime::Buffer buffer,
                           std::vector<runtime::Event> waits = {});

  // Chunks currently in flight on the H2D stream.
  std::int64_t in_flight() const { return static_cast<std::int64_t>(fetches_.size()); }

  // Drains both transfer streams (retiring every pending migration).
  void synchronize();

 private:
  runtime::Event issue_fetch(const std::string& key, bool take,
                             std::vector<runtime::Event> waits, bool count_against_cap);
  // Streams path is active unless sync-constructed or fault-degraded.
  bool streams_active() const { return use_streams_ && !degraded_; }
  // Draws the injector for a transfer at `key`; retries with backoff
  // (charged to the transfer stream); on exhaustion flips degraded_.
  void survive_transfer_faults(bool is_fetch, const std::string& key);

  struct InFetch {
    runtime::Event ready;
    // Filled by the stream task; shared because std::function is copyable.
    std::shared_ptr<runtime::Buffer> slot;
  };
  struct PendingPut {
    std::int64_t bytes = 0;
    runtime::Dtype dtype = runtime::Dtype::kBF16;
  };

  ChunkStore* store_;
  bool use_streams_;
  bool degraded_ = false;
  std::int64_t max_in_flight_;
  std::unordered_map<std::string, InFetch> fetches_;
  // Offloads issued but not yet retired: the chunk is not in the store
  // yet, so its byte size must be remembered for a chained prefetch.
  std::unordered_map<std::string, PendingPut> pending_puts_;
};

}  // namespace fpdt::core
