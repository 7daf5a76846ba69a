// Cluster/experiment configuration.
//
// One struct drives everything: the experiment harness derives the open-loop
// arrival rate from `target_load` analytically (using the distributions'
// closed-form means), so sweeps express intent ("utilisation 0.7") rather
// than raw rates.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/distributions.hpp"
#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "overload/overload.hpp"
#include "sched/scheduler.hpp"
#include "select/selector.hpp"
#include "store/lsm_model.hpp"
#include "workload/rate_function.hpp"
#include "workload/registry.hpp"

namespace das::core {

/// What prices an operation's service time on each server.
enum class StoreModel {
  /// Client-tagged demand (store::ServiceCost) at full capacity. The
  /// historical model; bit-identical to builds that predate src/store's
  /// LSM model.
  kSynthetic,
  /// Per-server LSM engine: memtable-hit vs level-walk reads, flush-driven
  /// compaction windows denting capacity, write stalls under compaction
  /// debt. See store::LsmModel.
  kLsm,
};

/// Stable lower-snake token, e.g. "synthetic", "lsm".
const char* to_string(StoreModel model);
bool store_model_from_string(std::string_view token, StoreModel& out);

/// How `target_load` is interpreted when deriving the arrival rate.
enum class LoadCalibration {
  /// Fraction of the aggregate nominal capacity (classic ρ). Under key skew
  /// the hottest server can exceed 1.0 and the system destabilises.
  kAverageCapacity,
  /// Fraction of the HOTTEST server's capacity, computed exactly from the
  /// key popularity law, per-key demands and placement. Keeps every sweep
  /// (skew, heterogeneity) inside the stable region. Default.
  kHottestServer,
};

/// How a client picks one replica to read from when replication > 1. The
/// modes and their implementations live in src/select (the pluggable
/// selector layer); this alias keeps the historical core-side name.
using ReplicaSelection = select::Mode;

struct ClusterConfig {
  // --- topology -----------------------------------------------------------
  std::size_t num_servers = 64;
  std::size_t num_clients = 8;
  /// Keyspace size = num_servers * keys_per_server.
  std::uint64_t keys_per_server = 2'000;
  /// 0 = modulo partitioner (perfectly balanced; default so scheduling
  /// effects are not confounded by placement skew); > 0 = consistent-hash
  /// ring with this many vnodes per server.
  std::size_t ring_vnodes = 0;
  /// Copies of every key (1 = no replication). Reads go to one replica
  /// chosen by `replica_selection`; clamped to num_servers.
  std::size_t replication = 1;
  ReplicaSelection replica_selection = ReplicaSelection::kPrimary;

  // --- workload -----------------------------------------------------------
  double zipf_theta = 0.9;
  /// Keys per multiget; geometric matches the heavy-tailed multiget widths
  /// of production social workloads (mean 8 here).
  IntDistPtr fanout = make_geometric(0.125, 128);
  /// Value sizes in bytes; default roughly Facebook-ETC shaped.
  RealDistPtr value_size_bytes = make_generalized_pareto(1.0, 250.0, 0.35, 64 * 1024.0);
  /// Target utilisation; see `load_calibration`. Loads >= 1 are accepted
  /// (the overload experiments drive the cluster past saturation on
  /// purpose); validate() rejects only targets outside (0, 10).
  double target_load = 0.7;
  LoadCalibration load_calibration = LoadCalibration::kHottestServer;
  /// Fraction of requests that are single-key write-all PUTs (rest are
  /// multigets), for tenants without their own operation mix. Both
  /// calibrations count a PUT once per replica it is written to.
  double write_fraction = 0.0;
  /// Optional arrival-rate modulation (multiplier, mean should be ~1).
  workload::RatePtr load_profile;
  /// Multi-tenant workload (workload registry): each tenant generates its
  /// own stream (mix/popularity/drift/replay per its spec) against an equal
  /// contiguous slice of the keyspace, with the cluster arrival rate split
  /// by tenant share. Unset tenant fields inherit the cluster-level workload
  /// settings above. Empty runs one default TenantSpec{}, which inherits all
  /// of them; results then carry no per-tenant breakdown.
  std::vector<workload::TenantSpec> tenants;

  // --- service model ------------------------------------------------------
  /// Fixed CPU cost per operation (µs at nominal speed).
  double per_op_overhead_us = 20.0;
  /// Value transfer/processing rate (bytes per µs at nominal speed).
  double service_bytes_per_us = 50.0;
  /// Static per-server speed multipliers (empty = all 1.0). Length must be
  /// num_servers when non-empty. 0.5 = a half-speed straggler.
  std::vector<double> server_speed_factors;
  /// Optional per-server time-varying speed multiplier profiles (empty =
  /// constant 1.0; single entry = shared by all servers).
  std::vector<workload::RatePtr> speed_profiles;
  /// Service-time pricing: synthetic demand tags (default) or the per-server
  /// LSM model. Schedulers never see the store — only mu_hat/backlog.
  StoreModel store_model = StoreModel::kSynthetic;
  /// LSM knobs (used only when store_model == kLsm). The model prices ops
  /// in the two anchors above, like the clients' demand tags.
  store::LsmOptions lsm;

  // --- scheduling ---------------------------------------------------------
  sched::Policy policy = sched::Policy::kFcfs;
  sched::SchedulerConfig sched_config;
  /// Preempt-resume service (oracle upper bound; policies without a
  /// preempts() hook are unaffected). The paper's setting is non-preemptive.
  bool preemptive_service = false;

  // --- DAS client side ----------------------------------------------------
  // Clients learn per-server delay/speed from piggybacks unless the policy is
  // DAS-NA, and send sibling-progress updates when the policy reads them.
  /// Request deadline offset for EDF (arrival + this).
  Duration edf_slo_us = 10.0 * kMillisecond;

  // --- network ------------------------------------------------------------
  Duration net_latency_us = 5.0;
  /// Lognormal jitter sigma; 0 = constant latency.
  double net_jitter_sigma = 0.0;
  /// Fault injection: independent per-message drop probability in [0, 1).
  /// Requires retry_timeout_us > 0 so requests still complete.
  double msg_loss_probability = 0.0;
  /// Client retransmission timeout (exponential backoff with ±20% seeded
  /// jitter); 0 disables.
  Duration retry_timeout_us = 0.0;
  /// Cap on the backed-off retransmission timeout; 0 = uncapped.
  Duration retry_backoff_max_us = 0.0;
  /// Send attempts per op before the client gives up and the request counts
  /// as FAILED; 0 = retry forever (requires every fault to heal).
  std::uint32_t retry_max_attempts = 0;
  /// Consecutive retry timeouts before a client suspects a server and fails
  /// reads over to other replicas; 0 disables failure detection.
  std::uint32_t suspicion_rto_threshold = 3;
  /// Hedged reads: duplicate an unanswered op to another replica after this
  /// delay (needs replication >= 2); 0 disables.
  Duration hedge_delay_us = 0.0;
  // (Message sizes come from the core/wire.hpp size model.)

  // --- overload control ---------------------------------------------------
  /// Bounded queues / deadlines / admission control (src/overload). All
  /// defaults OFF: a default-constructed block reproduces the unprotected
  /// system bit-for-bit (wire sizes, RNG streams, results).
  overload::OverloadConfig overload;

  // --- faults -------------------------------------------------------------
  /// Scripted fault timeline (crashes/recoveries, gray-failure slowdowns,
  /// link partitions, loss bursts), executed by the Cluster through the
  /// simulator. Empty = fault layer fully inert (bit-identical runs).
  fault::FaultPlan fault_plan;

  // --- run control --------------------------------------------------------
  std::uint64_t seed = 42;
  /// Run the invariant audit (simulator + every server + its scheduler) each
  /// time this many events have been dispatched; 0 disables. Audits throw
  /// AuditError on any violated invariant, independent of build type.
  std::uint64_t audit_every_events = 0;
  /// Retain up to this many per-request RCT-breakdown rows (beyond the
  /// always-on aggregate summary) for tests, exact RCT quantiles and offline
  /// analysis; 0 keeps only the aggregate. A row costs 56 B. The rows are
  /// reserved once, from the derived request rate over the measure window,
  /// and grow only past that estimate.
  std::size_t breakdown_retain_requests = 0;

  /// Cross-field validation of the fault/recovery configuration, run by the
  /// Cluster constructor before any simulation state is built. Throws
  /// std::invalid_argument naming the offending field(s) — a config that can
  /// lose work without the means to recover or account for it is rejected
  /// up front instead of tripping a mid-run invariant.
  void validate() const;

  /// Long-run speed of server `s`: its static speed factor times the time
  /// average of its speed profile over [0, horizon).
  double mean_server_speed(std::size_t s, SimTime horizon) const;
  /// Aggregate nominal service capacity (work-µs per µs): mean_server_speed
  /// summed over the servers.
  double nominal_capacity(SimTime horizon) const;
};

}  // namespace das::core
