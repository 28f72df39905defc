// Keyed storage for cached sequence chunks (q̂, k̂, v̂, ô, lse, y, …).
//
// In "offload" mode a stored chunk migrates device → host (counted as D2H
// traffic) and fetches migrate back; in "resident" mode chunks keep their
// HBM charge — the "FPDT w. chunking" baseline whose footprint grows with u.
// Either way the *data* is identical; only where the bytes are charged
// differs, which is exactly the paper's distinction.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "runtime/device.h"
#include "runtime/stream.h"

namespace fpdt::core {

class ChunkStore {
 public:
  ChunkStore(runtime::Device& device, runtime::Host& host, bool offload)
      : device_(&device), host_(&host), offload_(offload) {}

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;
  // Moves null the source's pointers: a defaulted move would leave the
  // moved-from store with live device_/host_ and a usable API, silently
  // double-charging pools. Every accessor checks against use-after-move.
  ChunkStore(ChunkStore&& other) noexcept
      : device_(std::exchange(other.device_, nullptr)),
        host_(std::exchange(other.host_, nullptr)),
        offload_(other.offload_),
        chunks_(std::move(other.chunks_)),
        offload_events_(std::move(other.offload_events_)) {
    other.chunks_.clear();
    other.offload_events_.clear();
  }
  ChunkStore& operator=(ChunkStore&& other) noexcept {
    if (this != &other) {
      device_ = std::exchange(other.device_, nullptr);
      host_ = std::exchange(other.host_, nullptr);
      offload_ = other.offload_;
      chunks_ = std::move(other.chunks_);
      offload_events_ = std::move(other.offload_events_);
      other.chunks_.clear();
      other.offload_events_.clear();
    }
    return *this;
  }

  // Stores a device buffer under `key` (offloads if configured).
  void put(const std::string& key, runtime::Buffer buffer);

  // Removes and returns the chunk as a device buffer (fetches if offloaded).
  runtime::Buffer take(const std::string& key);

  // Returns a device copy, leaving the stored chunk in place (backward
  // fetches KV chunks u-i times; the cached copy must survive).
  runtime::Buffer fetch_copy(const std::string& key);

  bool contains(const std::string& key) const { return chunks_.contains(key); }

  bool offload() const { return offload_; }
  runtime::Device& device() const;
  runtime::Host& host() const;

  // Logical bytes of the stored chunk (whichever pool holds the charge).
  std::int64_t stored_bytes(const std::string& key) const;

  // ---- Async paths (core::ChunkPrefetcher) ----------------------------------
  // Inserts a chunk whose migration the caller already performed (the
  // prefetcher retires transfers on its streams, then adopts the result).
  void adopt(const std::string& key, runtime::Buffer buffer);

  // Removes and returns the stored buffer *without* any migration or
  // transfer counting — the prefetcher performs those itself at the point
  // its stream task retires.
  runtime::Buffer extract(const std::string& key);

  // Stored buffer (charge + dtype visible), no migration.
  const runtime::Buffer& peek_buffer(const std::string& key) const;

  // Completion event of an asynchronous offload of `key`. A later prefetch
  // of the same key must wait on it (write-then-read on the host copy).
  void set_offload_event(const std::string& key, runtime::Event event) {
    offload_events_[key] = event;
  }
  runtime::Event offload_event(const std::string& key) const {
    auto it = offload_events_.find(key);
    return it != offload_events_.end() ? it->second : runtime::Event();
  }

 private:
  void check_live() const;

  runtime::Device* device_;
  runtime::Host* host_;
  bool offload_;
  std::unordered_map<std::string, runtime::Buffer> chunks_;
  std::unordered_map<std::string, runtime::Event> offload_events_;
};

// Key helpers: chunk keys are "<kind>.<layer>.<chunk>".
std::string chunk_key(const char* kind, std::int64_t layer, std::int64_t chunk);

}  // namespace fpdt::core
