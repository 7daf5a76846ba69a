// Cluster: wires simulator, network, partitioner, servers and clients into
// one runnable system and collects the results.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "workload/multiget.hpp"
#include "workload/replay.hpp"

namespace das::core {

/// Warmup/measurement windows of a run. Requests arriving in
/// [warmup, warmup + measure) are measured; everything is simulated to
/// completion either way so the tail is not truncated.
struct RunWindow {
  Duration warmup_us = 50.0 * kMillisecond;
  Duration measure_us = 300.0 * kMillisecond;
  SimTime horizon() const { return warmup_us + measure_us; }
};

class Cluster {
 public:
  /// `tracer` (optional, caller-owned, must outlive the cluster) records the
  /// full op lifecycle; null means zero tracing overhead.
  Cluster(ClusterConfig config, RunWindow window,
          trace::Tracer* tracer = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs to completion (all generated requests answered) and returns the
  /// aggregated result. Callable once.
  ExperimentResult run();

  // Introspection for tests.
  sim::Simulator& simulator() { return sim_; }
  const Metrics& metrics() const { return metrics_; }
  const ClusterConfig& config() const { return config_; }
  Server& server(std::size_t i) { return *servers_.at(i); }
  Client& client(std::size_t i) { return *clients_.at(i); }
  std::size_t server_count() const { return servers_.size(); }
  std::size_t client_count() const { return clients_.size(); }
  const store::Partitioner& partitioner() const { return *partitioner_; }
  const std::vector<Bytes>& key_sizes() const { return key_sizes_; }
  /// Tenant t's generator (nullptr for replay tenants); valid only when the
  /// config declares tenants.
  const workload::MultigetGenerator* tenant_generator(std::size_t t) const {
    return tenant_generators_.at(t).get();
  }
  /// Records every generated operation into `sink` for later replay
  /// (one record per read key, one per write); call before run(). nullptr
  /// detaches. Purely observational.
  void set_workload_recorder(workload::ReplayTrace* sink);
  /// Per-request RCT decomposition (aggregate always; rows when
  /// config.breakdown_retain_requests > 0).
  const trace::BreakdownCollector& breakdown() const { return breakdown_; }

 private:
  /// Request arrival rate (requests/µs, all clients) per the calibration mode.
  double derived_request_rate() const;
  /// Multi-tenant variant: share-weighted, mix-aware demand model across the
  /// synthetic tenants (replay tenants pace themselves off their trace).
  double derived_tenant_request_rate() const;

  /// Executes one scripted fault event (run() schedules one call per
  /// FaultPlan entry) and mirrors it into the trace as an instant event.
  void apply_fault(const fault::FaultEvent& event);

  net::NodeId server_node(ServerId s) const { return s; }
  net::NodeId client_node(ClientId c) const {
    return static_cast<net::NodeId>(config_.num_servers + c);
  }

  ClusterConfig config_;
  RunWindow window_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  store::PartitionerPtr partitioner_;
  /// Client-side sizes: drawn at construction, updated as PUTs are issued.
  std::vector<Bytes> key_sizes_;
  /// The drawn sizes, read-only after construction; every server reads
  /// through it. Declared before servers_ so it outlives them.
  std::vector<Bytes> catalogue_;
  std::unique_ptr<workload::MultigetGenerator> generator_;
  /// Multi-tenant mode: one generator per tenant over its keyspace slice
  /// (nullptr entries for replay tenants) plus the loaded traces and the
  /// parsed per-tenant value-size distributions. All empty in legacy mode.
  std::vector<std::unique_ptr<workload::MultigetGenerator>> tenant_generators_;
  std::vector<workload::ReplayTrace> replay_traces_;
  std::vector<RealDistPtr> tenant_value_dists_;
  Metrics metrics_;
  trace::Tracer* tracer_ = nullptr;
  trace::BreakdownCollector breakdown_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint64_t progress_messages_ = 0;
  bool ran_ = false;
};

}  // namespace das::core
