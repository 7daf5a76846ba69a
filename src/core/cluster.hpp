// Cluster: wires simulator, network, partitioner, servers and clients into
// one runnable system and collects the results.
#pragma once

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/invariant.hpp"
#include "common/types.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "store/service_cost.hpp"
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

/// Auditable: between events every generated request is either settled in
/// the Metrics ledger or in flight at its client (request conservation).
///
/// The cluster is also the wire: it is the Transport its clients and servers
/// send through and the MessageSink its simulator delivers to. A message in
/// flight is a plain struct parked in its kind's pool; the network carries
/// only a ticket naming it, and deliver() dispatches the ticket with one
/// switch.
class Cluster : public Auditable, private Transport, private sim::MessageSink {
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
  const store::Partitioner& partitioner() const { return *partitioner_; }
  /// A copy of every key's size as drawn at construction, widened to Bytes.
  std::vector<Bytes> key_sizes() const {
    return {key_sizes_.begin(), key_sizes_.end()};
  }
  /// Size of `key` as clients see it: the last write any client issued (or
  /// a replayed read's recorded size), else the construction-time draw.
  /// Every client reads the same catalogue and overlay.
  Bytes client_size(KeyId key) const { return clients_.front()->size_of(key); }
  /// Request arrival rate (requests/µs, all clients) that the load
  /// calibration derived from target_load; 0 when every tenant replays.
  double request_rate() const { return request_rate_; }
  /// Records every generated operation into `sink` for later replay
  /// (one record per read key, one per write); call before run(). nullptr
  /// detaches. Purely observational.
  void set_workload_recorder(workload::ReplayTrace* sink);
  /// Per-request RCT decomposition (aggregate always; rows when
  /// config.breakdown_retain_requests > 0).
  const trace::BreakdownCollector& breakdown() const { return metrics_.breakdown(); }

  /// Messages delivered so far, per kind. Every other dispatched event is a
  /// timer (arrival, service completion, retry, hedge, deadline, fault).
  struct DeliveryCounts {
    std::uint64_t ops = 0;
    std::uint64_t responses = 0;
    std::uint64_t progress = 0;
    std::uint64_t total() const { return ops + responses + progress; }
  };
  const DeliveryCounts& deliveries() const { return deliveries_; }

  /// generated == settled + Σ client in-flight, over the whole run so far.
  void check_invariants() const override;

 private:
  friend struct TestCorruptor;

  /// A ticket is a message kind in its top two bits over an index into that
  /// kind's pool.
  enum class MessageKind : std::uint32_t { kOp = 0, kResponse = 1, kProgress = 2 };
  static constexpr std::uint32_t kKindShift = 30;
  static constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;

  struct OpMessage {
    ServerId server = 0;
    sched::OpContext op;
  };
  struct ProgressMessage {
    ServerId server = 0;
    RequestId request = 0;
    sched::ProgressUpdate update;
  };

  /// Messages of one kind parked between send and delivery; freed entries
  /// are reused first, so a pool grows only to the peak in flight.
  template <typename T>
  class Pool {
   public:
    std::uint32_t put(const T& msg) {
      if (free_.empty()) {
        DAS_CHECK_MSG(items_.size() <= kIndexMask, "message pool exhausted");
        items_.push_back(msg);
        return static_cast<std::uint32_t>(items_.size() - 1);
      }
      const std::uint32_t index = free_.back();
      free_.pop_back();
      items_[index] = msg;
      return index;
    }
    /// Frees the entry and returns a copy of its message: the handler it is
    /// handed to may send more, growing the pool under a reference.
    T take(std::uint32_t index) {
      free_.push_back(index);
      return items_[index];
    }
    /// Frees the entry of a message the network dropped.
    void drop(std::uint32_t index) { free_.push_back(index); }

   private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
  };

  /// Parks `msg` and sends its ticket; a dropped message is freed at once.
  template <typename T>
  void post(Pool<T>& pool, MessageKind kind, net::NodeId from, net::NodeId to,
            Bytes size, const T& msg);

  // Transport: the clients' and servers' way onto the network.
  void send_op(ServerId server, const sched::OpContext& op) override;
  void send_progress(ClientId client, ServerId server, RequestId request,
                     const sched::ProgressUpdate& update) override;
  void send_response(const OpResponse& resp) override;
  // MessageSink: a delivered ticket becomes its receiver's handler call.
  void deliver(sim::Ticket ticket) override;

  /// A tenant with everything it inherits resolved: its spec's setting where
  /// it has one, the cluster-level setting otherwise.
  struct Tenant {
    double share = 1.0;
    /// Draws the tenant's key sizes and the sizes it writes.
    RealDistPtr value_size;
    /// The spec set `size:` (the hottest-server calibration prices a write
    /// of any other tenant at the key's current size).
    bool own_value_size = false;
    workload::OpMix mix{};
    /// The spec's loaded trace (owned by config_), or nullptr: synthetic.
    const workload::ReplayTrace* replay = nullptr;
    /// A synthetic tenant's requests over its keyspace slice (its theta,
    /// fan-out and drift); nullptr for a replay tenant.
    std::unique_ptr<workload::MultigetGenerator> generator;
  };

  /// Sum of the synthetic tenants' shares; replay tenants take none of the
  /// derived arrival rate.
  double synthetic_share_sum() const;

  /// Request arrival rate per the calibration mode: a share-weighted,
  /// mix-aware demand model over the synthetic tenants (replay tenants pace
  /// themselves off their trace).
  double derived_request_rate() const;

  /// Executes one scripted fault event (run() schedules one call per
  /// FaultPlan entry) and mirrors it into the trace as an instant event.
  void apply_fault(const fault::FaultEvent& event);

  net::NodeId server_node(ServerId s) const { return s; }
  net::NodeId client_node(ClientId c) const {
    return static_cast<net::NodeId>(config_.num_servers + c);
  }

  ClusterConfig config_;
  /// The op-cost model every demand tag, LSM price and load calibration
  /// uses, built from config_'s two anchors.
  store::ServiceCost cost_;
  RunWindow window_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  store::PartitionerPtr partitioner_;
  /// The size catalogue, 4 B per key, drawn at construction and read only by
  /// clients (each op carries its key's entry). Declared before clients_.
  std::vector<std::uint32_t> key_sizes_;
  /// Sizes clients have issued writes with, shared by every client. The
  /// client-side mirror of each server's overlay of completed writes.
  FlatMap<KeyId, Bytes> issued_sizes_;
  /// The tenants the workload runs, resolved: config_.tenants, or one
  /// default tenant when the config declares none.
  std::vector<Tenant> tenants_;
  Metrics metrics_;
  trace::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  Pool<OpMessage> op_pool_;
  Pool<OpResponse> response_pool_;
  Pool<ProgressMessage> progress_pool_;
  DeliveryCounts deliveries_;
  double request_rate_ = 0;
  bool ran_ = false;
};

}  // namespace das::core
