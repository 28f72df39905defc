// Operation latency model over a HardwareSpec — the simulator's analogue of
// the microbenchmarks in Fig. 10 (All2All, attention fwd/bwd, host-to-device
// fetch strategies).
#pragma once

#include <cstdint>

#include "nn/model_config.h"
#include "sim/hardware.h"

namespace fpdt::sim {

// Host-fetch strategies profiled in §4.2.
enum class FetchStrategy {
  kPerGpu,           // every GPU issues its own DMA (contended PCIe lanes)
  kOneGpuScatter,    // one GPU fetches all, then NVLink scatter + sync
  kPerGpuExclusive,  // a single GPU active on the link (uncontended bound)
};

class CostModel {
 public:
  CostModel(HardwareSpec hw, int world) : hw_(hw), world_(world) {}

  const HardwareSpec& hw() const { return hw_; }
  int world() const { return world_; }
  bool multi_node() const { return world_ > hw_.gpus_per_node; }

  // ---- Compute ----
  double gemm_time(double flops) const;
  double attn_time(double flops) const;

  // ---- Collectives (per-GPU payload bytes) ----
  // Ulysses All2All: each GPU exchanges (P-1)/P of its payload; traffic to
  // off-node peers shares the node's IB HCA.
  double all2all_time(std::int64_t bytes_per_gpu) const;
  // Ring all-gather / reduce-scatter of a [s, d] activation (bytes = full
  // gathered size).
  double allgather_time(std::int64_t full_bytes) const;
  double reduce_scatter_time(std::int64_t full_bytes) const;
  double allreduce_time(std::int64_t bytes) const;
  double p2p_time(std::int64_t bytes) const;

  // ---- Host link (Fig. 10's three fetch strategies) ----
  double fetch_time(std::int64_t bytes_per_gpu, FetchStrategy strategy) const;
  double h2d_time(std::int64_t bytes) const {
    return fetch_time(bytes, FetchStrategy::kPerGpu);
  }
  double d2h_time(std::int64_t bytes) const {
    return fetch_time(bytes, FetchStrategy::kPerGpu);
  }

 private:
  double inter_bw_per_gpu() const {
    return hw_.ib_bw / static_cast<double>(hw_.gpus_per_node);
  }

  HardwareSpec hw_;
  int world_;
};

}  // namespace fpdt::sim
