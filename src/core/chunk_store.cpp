#include "core/chunk_store.h"

#include "common/check.h"

namespace fpdt::core {

void ChunkStore::check_live() const {
  FPDT_CHECK(device_ != nullptr && host_ != nullptr) << " ChunkStore used after move";
}

runtime::Device& ChunkStore::device() const {
  check_live();
  return *device_;
}

runtime::Host& ChunkStore::host() const {
  check_live();
  return *host_;
}

void ChunkStore::put(const std::string& key, runtime::Buffer buffer) {
  check_live();
  FPDT_CHECK(!chunks_.contains(key)) << " duplicate chunk key " << key;
  if (offload_) {
    chunks_.emplace(key, runtime::offload_to_host(*device_, *host_, std::move(buffer)));
  } else {
    chunks_.emplace(key, std::move(buffer));
  }
}

void ChunkStore::adopt(const std::string& key, runtime::Buffer buffer) {
  check_live();
  FPDT_CHECK(!chunks_.contains(key)) << " duplicate chunk key " << key;
  chunks_.emplace(key, std::move(buffer));
}

runtime::Buffer ChunkStore::extract(const std::string& key) {
  check_live();
  auto it = chunks_.find(key);
  FPDT_CHECK(it != chunks_.end()) << " missing chunk " << key;
  runtime::Buffer buf = std::move(it->second);
  chunks_.erase(it);
  offload_events_.erase(key);
  return buf;
}

const runtime::Buffer& ChunkStore::peek_buffer(const std::string& key) const {
  check_live();
  auto it = chunks_.find(key);
  FPDT_CHECK(it != chunks_.end()) << " missing chunk " << key;
  return it->second;
}

runtime::Buffer ChunkStore::take(const std::string& key) {
  check_live();
  auto it = chunks_.find(key);
  FPDT_CHECK(it != chunks_.end()) << " missing chunk " << key;
  runtime::Buffer buf = std::move(it->second);
  chunks_.erase(it);
  offload_events_.erase(key);
  if (offload_) return runtime::fetch_to_device(*device_, std::move(buf));
  return buf;
}

runtime::Buffer ChunkStore::fetch_copy(const std::string& key) {
  check_live();
  auto it = chunks_.find(key);
  FPDT_CHECK(it != chunks_.end()) << " missing chunk " << key;
  if (offload_) return runtime::fetch_copy_to_device(*device_, it->second);
  // Resident mode: a working copy still consumes HBM.
  return device_->alloc(it->second.tensor().clone(), it->second.dtype());
}

std::int64_t ChunkStore::stored_bytes(const std::string& key) const {
  check_live();
  auto it = chunks_.find(key);
  FPDT_CHECK(it != chunks_.end()) << " missing chunk " << key;
  return it->second.bytes();
}

std::string chunk_key(const char* kind, std::int64_t layer, std::int64_t chunk) {
  return std::string(kind) + "." + std::to_string(layer) + "." + std::to_string(chunk);
}

}  // namespace fpdt::core
