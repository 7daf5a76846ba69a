// Measurement collection for one simulation run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "trace/rct_breakdown.hpp"

namespace das::core {

/// How a request that did not complete settled.
enum class Settled : std::uint8_t {
  kFailed,   ///< retry budget spent on at least one op
  kShed,     ///< admission refusal or a BUSY rejection the client gave up on
  kExpired,  ///< end-to-end deadline passed before the last response
};

/// Request outcome counts. Every generated request settles exactly once, so
/// generated == settled() once nothing is in flight.
struct RequestCounts {
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;

  std::uint64_t settled() const { return completed + failed + shed + expired; }
  RequestCounts& operator+=(const RequestCounts& other);
};

/// The run's request ledger, shared by every client and server, and the one
/// holder of the measurement window: per tenant, the outcome counts of the
/// whole run and of the window (requests that ARRIVE inside it; warmup and
/// cooldown arrivals are excluded but still simulated), plus the window's
/// latency recorders and RCT breakdown. Cluster totals are sums over tenants.
class Metrics {
 public:
  /// The measurement window [begin, end); [0, ∞) until set.
  void set_window(SimTime begin, SimTime end);
  bool in_window(SimTime arrival) const {
    return arrival >= window_begin_ && arrival < window_end_;
  }
  /// How much of [begin, end) lies inside the window (server busy time).
  Duration time_in_window(SimTime begin, SimTime end) const;

  /// Keeps a ledger and an RCT recorder for `count` tenants; record calls
  /// attribute to their tenant index. Every owner that records requests calls
  /// it first (a run without tenants has one).
  void enable_tenants(std::size_t count);

  /// A request arrived at its client (counted whether or not it is admitted).
  void record_generated(SimTime arrival, std::uint32_t tenant = 0);
  /// A request completed: every op answered.
  void record_request(SimTime arrival, SimTime completion,
                      std::uint32_t tenant = 0);
  /// A request settled without completing. Unserved requests never enter the
  /// RCT population — mixing give-up times into a latency distribution would
  /// reward abandoning early — but they are counted in the ledger.
  void record_unserved(Settled how, SimTime arrival, SimTime at,
                       std::uint32_t tenant = 0);
  void record_operation(SimTime server_arrival, SimTime completion, Duration wait);
  /// A completed request's RCT attribution; kept when it arrived in the
  /// window.
  void record_breakdown(const trace::RequestBreakdown& row) {
    if (in_window(row.arrival)) breakdown_.record(row);
  }
  /// Retains per-request breakdown rows (BreakdownCollector::set_retain_cap).
  void retain_breakdown_rows(std::size_t cap, double expected_rows) {
    breakdown_.set_retain_cap(cap, expected_rows);
  }

  const LatencyRecorder& rct() const { return rct_; }
  const LatencyRecorder& op_latency() const { return op_latency_; }
  const LatencyRecorder& op_wait() const { return op_wait_; }
  const trace::BreakdownCollector& breakdown() const { return breakdown_; }

  std::size_t tenant_count() const { return tenant_rct_.size(); }
  const LatencyRecorder& tenant_rct(std::size_t t) const {
    return tenant_rct_.at(t);
  }
  /// Tenant `t`'s outcomes over the whole run and over the window.
  const RequestCounts& tenant_counts(std::size_t t) const {
    return tenant_counts_.at(t);
  }
  const RequestCounts& tenant_measured(std::size_t t) const {
    return tenant_measured_.at(t);
  }
  /// Cluster totals: the sums over tenants of the two above.
  RequestCounts counts() const;
  RequestCounts measured() const;

 private:
  SimTime window_begin_ = 0;
  SimTime window_end_ = kTimeInfinity;
  LatencyRecorder rct_{1e9};
  LatencyRecorder op_latency_{1e9};
  LatencyRecorder op_wait_{1e9};
  trace::BreakdownCollector breakdown_;
  std::vector<LatencyRecorder> tenant_rct_;
  std::vector<RequestCounts> tenant_counts_;
  std::vector<RequestCounts> tenant_measured_;
};

/// One tenant's slice of a multi-tenant run, read from its Metrics ledger.
/// Accounting closes exactly: generated == completed + failed + shed +
/// expired per tenant (checked by Cluster::run), and the cluster totals are
/// the sums over tenants by construction.
struct TenantOutcome {
  std::string name;
  /// Arrival-rate weight from the TenantSpec (as configured, unnormalised).
  double share = 1.0;
  std::uint64_t requests_generated = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t requests_measured = 0;
  std::uint64_t requests_failed_measured = 0;
  /// Overload-layer degradation (all zero with the layer off): who pays
  /// under overload.
  std::uint64_t requests_shed = 0;
  std::uint64_t requests_expired = 0;
  std::uint64_t requests_shed_measured = 0;
  std::uint64_t requests_expired_measured = 0;
  /// This tenant's fraction of the cluster's in-window completions
  /// (goodput). Sums to 1 over tenants when anything completed.
  double goodput_share = 0;
  LatencySummary rct;  // this tenant's request completion time (µs)
};

/// What an experiment returns: the paper's reported quantities plus the
/// accounting needed to sanity-check a run (conservation, utilisation).
struct ExperimentResult {
  LatencySummary rct;             // request completion time (µs)
  LatencySummary op_latency;      // single-operation latency (µs)
  LatencySummary op_wait;         // queueing wait component (µs)
  std::uint64_t requests_generated = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_measured = 0;
  /// Graceful-degradation accounting (fault layer). Conservation holds as
  /// requests_generated == requests_completed + requests_failed +
  /// requests_shed + requests_expired at drain.
  std::uint64_t requests_failed = 0;
  std::uint64_t requests_failed_measured = 0;
  /// Overload-layer accounting (src/overload); all zero with the layer off.
  std::uint64_t requests_shed = 0;           ///< admission refusal / BUSY give-up
  std::uint64_t requests_expired = 0;        ///< end-to-end deadline passed
  std::uint64_t requests_shed_measured = 0;
  std::uint64_t requests_expired_measured = 0;
  std::uint64_t requests_shed_admission = 0;  ///< refused before any op was sent
  std::uint64_t ops_rejected_busy = 0;        ///< server cap rejections
  std::uint64_t ops_shed_sojourn = 0;         ///< server sojourn drops
  std::uint64_t ops_expired_dropped = 0;      ///< server expiry drops at dequeue
  /// Service time spent on ops that completed after their expiry (served
  /// work nobody was waiting for; no mid-service abort exists).
  double wasted_service_us = 0;
  /// In-window settle and success rates (requests/s over the measure
  /// window). goodput <= throughput always; the gap is paid degradation.
  double throughput_rps = 0;  ///< completed + failed + shed + expired
  double goodput_rps = 0;     ///< completed only
  std::uint64_t requests_completed_after_failover = 0;
  std::uint64_t ops_failed_over = 0;
  std::uint64_t ops_abandoned = 0;
  std::uint64_t suspicions_raised = 0;
  std::uint64_t ops_dropped_crashed = 0;
  std::uint64_t server_crashes = 0;
  std::uint64_t server_recoveries = 0;
  std::uint64_t net_messages_dropped_partition = 0;
  /// completed / (completed + failed); 1.0 for a run with nothing failed.
  double availability = 1.0;
  std::uint64_t ops_generated = 0;
  std::uint64_t ops_completed = 0;
  double mean_server_utilization = 0;
  double max_server_utilization = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_messages_dropped = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t progress_messages = 0;
  std::uint64_t ops_retransmitted = 0;
  std::uint64_t duplicate_responses = 0;
  std::uint64_t ops_hedged = 0;
  /// Mechanism-activation counters summed over servers (sched::
  /// MechanismCounters); all zero for policies without the mechanism.
  std::uint64_t ops_deferred = 0;
  std::uint64_t ops_resumed = 0;
  std::uint64_t ops_aged = 0;
  std::uint64_t reranks_applied = 0;
  /// Store-model counters summed over servers (store::StoreModelStats);
  /// all zero in synthetic mode.
  std::uint64_t store_flushes = 0;
  std::uint64_t store_compactions = 0;
  std::uint64_t store_write_stalls = 0;
  std::uint64_t store_stalled_write_ops = 0;
  std::uint64_t store_memtable_hits = 0;
  std::uint64_t store_level_reads = 0;
  double store_compaction_busy_us = 0;
  double store_write_stall_us = 0;
  /// Per-request RCT decomposition aggregated over the measurement window
  /// (always collected; pure arithmetic on existing timestamps).
  trace::BreakdownSummary breakdown;
  /// Per-tenant outcomes; empty when the config declares no tenants.
  std::vector<TenantOutcome> tenants;
  /// Jain fairness index over the per-tenant mean RCTs, (0, 1]; 1.0 means
  /// every tenant sees the same mean RCT (and for runs with < 2 measured
  /// tenants, where fairness is vacuous).
  double jain_fairness = 1.0;
  double sim_duration_us = 0;
  double wall_seconds = 0;
};

// --- Reported fields ---------------------------------------------------------
//
// Every reported result field, declared once: where a BENCH JSON point writes
// it (its block), its JSON name, whether it is a count (printed as an
// integer) or a real (printed with round-trip precision), how to read it and,
// for the fields experiment tables print, a title with unit, a precision and
// which way is better. render_bench_json, the experiment tables and dassim's
// block tables read these rows; none of them lists fields by hand.

/// Where a field sits in a BENCH JSON point. The rows are in writing order;
/// a nested block's rows are contiguous.
enum class Block : std::uint8_t {
  kNone,         ///< not written to the JSON
  kTop,          ///< on the point object
  kMechanism,    ///< on the point object: scheduler mechanism counters
  kBreakdown,    ///< "breakdown": exact mean RCT decomposition
  kDegradation,  ///< "degradation": fault-layer accounting
  kOverload,     ///< "overload": overload-layer accounting
  kStorage,      ///< "storage": store-model counters
  kLast,         ///< on the point object, after "tenants" and the FCFS gain
};

/// The JSON object a block's fields nest in; nullptr for the blocks written
/// on the point object itself.
const char* json_object(Block block);

/// Which way a field improves; kNone (counters, utilisation) has no gain.
enum class Better : std::uint8_t { kNone, kLower, kHigher };

/// The gain of `candidate` over the FCFS baseline `fcfs` on a metric that
/// improves in direction `better`, as a fraction that is positive when the
/// candidate is better: 1 − candidate/fcfs, or candidate/fcfs − 1 for a
/// higher-is-better metric. NaN without a direction or an FCFS value > 0.
double gain_over_fcfs(double fcfs, double candidate, Better better = Better::kLower);

template <class Record>
struct Field {
  using Count = std::uint64_t (*)(const Record&);
  using Real = double (*)(const Record&);

  constexpr Field(Block where, const char* json_name,
                  std::variant<Count, Real> reader, const char* heading = nullptr,
                  int decimals = 1, Better direction = Better::kNone)
      : block(where), name(json_name), read(reader), title(heading),
        precision(decimals), better(direction) {}

  Block block;
  const char* name;  ///< the JSON name
  std::variant<Count, Real> read;
  /// Experiment-table title with unit; nullptr for a field no table prints.
  const char* title;
  int precision;  ///< decimals of a real's table cell
  Better better;

  bool is_count() const { return std::holds_alternative<Count>(read); }
  /// A count field's exact value.
  std::uint64_t count(const Record& r) const { return std::get<Count>(read)(r); }
  /// Any field's value as a double (a count above 2^53 rounds).
  double value(const Record& r) const {
    return is_count() ? static_cast<double>(count(r)) : std::get<Real>(read)(r);
  }
};

using ResultField = Field<ExperimentResult>;
using TenantField = Field<TenantOutcome>;

/// The fields of an ExperimentResult, in JSON writing order.
std::span<const ResultField> result_fields();

/// The fields of a TenantOutcome's JSON object, in writing order (its
/// "name" label is written first, beside them).
std::span<const TenantField> tenant_fields();

}  // namespace das::core
