// Shared execution environment for an FPDT run: the sequence-parallel
// process group, one emulated device per rank, and the node's host memory.
#pragma once

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "comm/hierarchical_group.h"
#include "comm/process_group.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/fpdt_config.h"
#include "fault/fault_injector.h"
#include "kernels/backend.h"
#include "runtime/device.h"
#include "sim/hardware.h"
#include "topo/topology.h"

namespace fpdt::core {

class FpdtEnv {
 public:
  // hbm_capacity_bytes < 0 = unlimited (functional tests); finite values
  // make OOM observable (capacity experiments).
  FpdtEnv(int world, FpdtConfig cfg, std::int64_t hbm_capacity_bytes = -1,
          std::int64_t host_capacity_bytes = -1)
      : pg_(make_group(world, cfg)),
        host_(host_capacity_bytes),
        cfg_(cfg),
        kernel_scope_(std::getenv("FPDT_KERNEL_BACKEND") != nullptr ? std::string()
                                                                    : cfg_.kernel_backend) {
    // ^ cfg.kernel_backend selects the math-kernel backend for this env's
    // lifetime; like FPDT_FAULTS, the FPDT_KERNEL_BACKEND env var wins over
    // per-env config (it already decided the process default at startup).
    init_logging_from_env();  // honor FPDT_LOG_LEVEL for everything downstream
    devices_.reserve(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) {
      devices_.push_back(std::make_unique<runtime::Device>(r, hbm_capacity_bytes));
    }
    // Arm the injector from the config unless something upstream (CLI flag,
    // FPDT_FAULTS) already did — the process-wide spec wins over per-env.
    if (!cfg_.fault_spec.empty() && !fault::FaultInjector::instance().enabled()) {
      fault::FaultInjector::instance().configure(cfg_.fault_spec);
    }
    // Route retry backoffs into this env's stream ledgers so they show up
    // in `fpdt overlap`/traces. Owner-tagged: a newer env (built during an
    // OOM-degradation rebuild) steals the sink; the older env's clear is
    // then a no-op.
    fault::FaultInjector::instance().set_backoff_sink(
        this, [this](int rank, const std::string& label, double seconds) {
          charge_backoff(rank, label, seconds);
        });
    // Price every collective once, where the group reports it: it blocks
    // every rank's compute stream (the runtime has no comm queue) for the
    // group's link-busy time, else for its bytes at the comm rate.
    pg_->set_cost_sink([this](const comm::CollectiveCost& c) {
      for (const auto& d : devices_) {
        const runtime::StreamRates& rt = d->rates();
        const double by_bytes =
            static_cast<double>(c.bytes_per_rank) / rt.comm_bytes_per_s + rt.comm_latency_s;
        d->compute_stream().enqueue(c.name, c.link_busy_s >= 0.0 ? c.link_busy_s : by_bytes);
      }
    });
  }

  ~FpdtEnv() { fault::FaultInjector::instance().clear_backoff_sink(this); }

  FpdtEnv(const FpdtEnv&) = delete;  // the backoff sink captures `this`
  FpdtEnv& operator=(const FpdtEnv&) = delete;
  FpdtEnv(FpdtEnv&&) = delete;
  FpdtEnv& operator=(FpdtEnv&&) = delete;

  int world() const { return pg_->world_size(); }
  comm::ProcessGroup& pg() { return *pg_; }
  runtime::Device& device(int r) { return *devices_[static_cast<std::size_t>(r)]; }
  runtime::Host& host() { return host_; }
  const FpdtConfig& cfg() const { return cfg_; }

  // Largest HBM peak across the group (the number Fig. 12 reports).
  std::int64_t max_hbm_peak() const {
    std::int64_t peak = 0;
    for (const auto& d : devices_) peak = std::max(peak, d->hbm().peak());
    return peak;
  }

  void reset_peaks() {
    for (const auto& d : devices_) d->hbm().reset_peak();
  }

  // ---- Stream timeline helpers ----

  void set_stream_rates(const runtime::StreamRates& rates) {
    for (const auto& d : devices_) d->set_rates(rates);
  }

  // Transfer-timeline report of one rank (they are symmetric; rank 0 is
  // what the CLI prints). Synchronizes that device's streams.
  runtime::TimelineReport timeline_report(int rank = 0) {
    return device(rank).timeline_report();
  }

  void reset_stream_timelines() {
    for (const auto& d : devices_) d->reset_stream_timelines();
  }

  void synchronize_streams() {
    for (const auto& d : devices_) d->synchronize_streams();
  }

  // fn(r) as rank r's compute region `label` (runtime::Device::compute),
  // rank by rank — or forked across the rank workers.
  template <typename Fn>
  void compute_ranks(const std::string& label, Fn&& fn) {
    for (int r = 0; r < world(); ++r) device(r).compute(label, [&] { fn(r); });
  }
  template <typename Fn>
  void parallel_compute(const std::string& label, Fn&& fn) {
    parallel_for_ranks(world(), [&](int r) { device(r).compute(label, [&] { fn(r); }); });
  }

  // Charges a retry backoff as a timing-only span on the stream the retried
  // operation would have used: collective retries (rank < 0) stall every
  // rank's compute stream; transfer retries land on the acting rank's
  // h2d/d2h stream (picked from the label the retry loop built).
  void charge_backoff(int rank, const std::string& label, double seconds) {
    if (rank < 0) {
      for (const auto& d : devices_) d->compute_stream().enqueue(label, seconds);
      return;
    }
    if (rank >= world()) return;  // stale sink call from a smaller old env
    runtime::Device& d = device(rank);
    runtime::Stream& s =
        label.rfind("retry.offload", 0) == 0 ? d.d2h_stream() : d.h2d_stream();
    s.enqueue(label, seconds);
  }

 private:
  // cfg.ranks_per_node carving the world into >1 full nodes selects the
  // topology-aware group; anything else (0, non-dividing, single node)
  // keeps the seed's flat fabric. Collectives are payload-bitwise-identical
  // either way, so this is a routing/accounting choice, never a numerics
  // one.
  static std::unique_ptr<comm::ProcessGroup> make_group(int world, const FpdtConfig& cfg) {
    const int rpn = cfg.ranks_per_node;
    if (rpn > 0 && world > rpn && world % rpn == 0) {
      return std::make_unique<comm::HierarchicalProcessGroup>(
          topo::Topology::grid(world / rpn, rpn, sim::a100_80g_node()));
    }
    return std::unique_ptr<comm::ProcessGroup>(new comm::ProcessGroup(world));
  }

  std::unique_ptr<comm::ProcessGroup> pg_;
  std::vector<std::unique_ptr<runtime::Device>> devices_;
  runtime::Host host_;
  FpdtConfig cfg_;
  kernels::BackendScope kernel_scope_;
};

}  // namespace fpdt::core
