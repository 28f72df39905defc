// Emulated GPU ("device") and node-shared host memory, plus Buffer — a
// tensor bound to a pool charge. Transfers between host and device pools go
// through the Device's transfer counters so H2D/D2H traffic is observable
// (cross-checked against the simulator's PCIe model).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/memory_pool.h"
#include "runtime/stream.h"
#include "tensor/tensor.h"

namespace fpdt::runtime {

// Tensor + accounting charge. The tensor data lives in process memory either
// way; "where" it lives logically is defined by which pool is charged.
class Buffer {
 public:
  Buffer() = default;
  Buffer(MemoryPool* pool, Tensor tensor, Dtype dtype)
      : tensor_(std::move(tensor)),
        dtype_(dtype),
        allocation_(pool, tensor_.numel() * dtype_size(dtype)) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;

  bool defined() const { return tensor_.defined(); }
  Tensor& tensor() { return tensor_; }
  const Tensor& tensor() const { return tensor_; }
  Dtype dtype() const { return dtype_; }
  std::int64_t bytes() const { return allocation_.bytes(); }

  // Drop the charge and the data.
  void release() {
    allocation_.release();
    tensor_ = Tensor();
  }

  // Take the tensor out, dropping the charge (used when data migrates pools).
  Tensor detach() {
    allocation_.release();
    return std::move(tensor_);
  }

 private:
  Tensor tensor_;
  Dtype dtype_ = Dtype::kBF16;
  Allocation allocation_;
};

struct TransferStats {
  std::int64_t h2d_bytes = 0;
  std::int64_t d2h_bytes = 0;
  std::int64_t h2d_count = 0;
  std::int64_t d2h_count = 0;
};

// One emulated GPU: an HBM arena, transfer counters, and the paper's three
// per-GPU streams (§4.1): compute, host-to-device, device-to-host.
class Device {
 public:
  Device(int rank, std::int64_t hbm_capacity_bytes)
      : rank_(rank),
        hbm_("hbm[rank " + std::to_string(rank) + "]", hbm_capacity_bytes),
        compute_("compute[rank " + std::to_string(rank) + "]"),
        h2d_("h2d[rank " + std::to_string(rank) + "]"),
        d2h_("d2h[rank " + std::to_string(rank) + "]") {
    hbm_.set_trace_identity(rank, "hbm bytes");
    compute_.set_trace_identity(rank, "compute");
    h2d_.set_trace_identity(rank, "h2d");
    d2h_.set_trace_identity(rank, "d2h");
  }

  int rank() const { return rank_; }
  MemoryPool& hbm() { return hbm_; }
  const MemoryPool& hbm() const { return hbm_; }
  TransferStats& transfers() { return transfers_; }
  const TransferStats& transfers() const { return transfers_; }

  Stream& compute_stream() { return compute_; }
  Stream& h2d_stream() { return h2d_; }
  Stream& d2h_stream() { return d2h_; }
  StreamRates& rates() { return rates_; }
  const StreamRates& rates() const { return rates_; }
  void set_rates(const StreamRates& rates) { rates_ = rates; }

  // Runs `body` eagerly as one compute region: the kernels it dispatches on
  // this thread charge their analytic work (kernels/op_cost.h) to a
  // WorkSink, and one span priced from it (StreamRates::compute_time) is
  // enqueued on the compute stream after `waits`. Returns its event.
  template <typename Body>
  Event compute(std::string label, Body&& body, std::vector<Event> waits = {}) {
    obs::WorkSink work;
    struct Install {  // restores the enclosing sink, also when body throws
      obs::WorkSink* prev;
      ~Install() { obs::t_work_sink = prev; }
    } install{std::exchange(obs::t_work_sink, &work)};
    body();
    std::int64_t flops = 0;
    for (const obs::OpWork& w : work.kind) flops += w.flops;
    return compute_.enqueue(std::move(label), rates_.compute_time(work), std::move(waits), {},
                            flops);
  }

  // Drains all three streams (executing deferred side effects).
  void synchronize_streams() {
    compute_.synchronize();
    h2d_.synchronize();
    d2h_.synchronize();
  }

  // Per-device transfer-timeline report; synchronizes first so the span
  // ledger is complete.
  TimelineReport timeline_report() {
    synchronize_streams();
    return make_timeline_report(compute_, h2d_, d2h_);
  }

  void reset_stream_timelines() {
    synchronize_streams();
    compute_.reset_timeline();
    h2d_.reset_timeline();
    d2h_.reset_timeline();
  }

  Buffer alloc(Tensor t, Dtype dtype = Dtype::kBF16) { return Buffer(&hbm_, std::move(t), dtype); }

 private:
  int rank_;
  MemoryPool hbm_;
  TransferStats transfers_;
  Stream compute_;
  Stream h2d_;
  Stream d2h_;
  StreamRates rates_;
};

// Node-shared host memory (the offload target). Unlimited by default, or
// bounded to model the paper's 1 TB nodes.
class Host {
 public:
  explicit Host(std::int64_t capacity_bytes = -1) : pool_("host", capacity_bytes) {
    pool_.set_trace_identity(obs::kNodeRank, "host bytes");
  }

  MemoryPool& pool() { return pool_; }

  Buffer alloc(Tensor t, Dtype dtype = Dtype::kBF16) { return Buffer(&pool_, std::move(t), dtype); }

 private:
  MemoryPool pool_;
};

// Move data device -> host ("offload"). Counts D2H bytes on the device.
inline Buffer offload_to_host(Device& device, Host& host, Buffer device_buffer) {
  const std::int64_t bytes = device_buffer.bytes();
  const Dtype dtype = device_buffer.dtype();
  Tensor t = device_buffer.detach();
  device.transfers().d2h_bytes += bytes;
  device.transfers().d2h_count += 1;
  return host.alloc(std::move(t), dtype);
}

// Move data host -> device ("fetch"). Counts H2D bytes; may throw OOM.
inline Buffer fetch_to_device(Device& device, Buffer host_buffer) {
  const std::int64_t bytes = host_buffer.bytes();
  const Dtype dtype = host_buffer.dtype();
  Tensor t = host_buffer.detach();
  device.transfers().h2d_bytes += bytes;
  device.transfers().h2d_count += 1;
  return device.alloc(std::move(t), dtype);
}

// Copy (not move) host -> device, leaving the host copy resident. This is
// the semantics of fetching a cached KV chunk that later iterations fetch
// again (backward pass).
inline Buffer fetch_copy_to_device(Device& device, const Buffer& host_buffer) {
  Tensor t = host_buffer.tensor().clone();
  device.transfers().h2d_bytes += host_buffer.bytes();
  device.transfers().h2d_count += 1;
  return device.alloc(std::move(t), host_buffer.dtype());
}

}  // namespace fpdt::runtime
