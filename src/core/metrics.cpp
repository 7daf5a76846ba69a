#include "core/metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace das::core {

namespace {

std::uint64_t& count_of(RequestCounts& counts, Settled how) {
  switch (how) {
    case Settled::kFailed:
      return counts.failed;
    case Settled::kShed:
      return counts.shed;
    case Settled::kExpired:
      return counts.expired;
  }
  DAS_CHECK_MSG(false, "unknown Settled kind");
  return counts.expired;
}

}  // namespace

RequestCounts& RequestCounts::operator+=(const RequestCounts& other) {
  generated += other.generated;
  completed += other.completed;
  failed += other.failed;
  shed += other.shed;
  expired += other.expired;
  return *this;
}

void Metrics::set_window(SimTime begin, SimTime end) {
  DAS_CHECK(begin <= end);
  window_begin_ = begin;
  window_end_ = end;
}

Duration Metrics::time_in_window(SimTime begin, SimTime end) const {
  const SimTime clip_begin = std::max(begin, window_begin_);
  const SimTime clip_end = std::min(end, window_end_);
  return clip_end > clip_begin ? clip_end - clip_begin : 0.0;
}

void Metrics::enable_tenants(std::size_t count) {
  DAS_CHECK(count >= 1);
  tenant_rct_.assign(count, LatencyRecorder{1e9});
  tenant_counts_.assign(count, RequestCounts{});
  tenant_measured_.assign(count, RequestCounts{});
}

void Metrics::record_generated(SimTime arrival, std::uint32_t tenant) {
  ++tenant_counts_.at(tenant).generated;
  if (in_window(arrival)) ++tenant_measured_.at(tenant).generated;
}

void Metrics::record_request(SimTime arrival, SimTime completion,
                             std::uint32_t tenant) {
  DAS_CHECK(completion >= arrival);
  ++tenant_counts_.at(tenant).completed;
  if (!in_window(arrival)) return;
  ++tenant_measured_.at(tenant).completed;
  rct_.add(completion - arrival);
  tenant_rct_.at(tenant).add(completion - arrival);
}

void Metrics::record_unserved(Settled how, SimTime arrival, SimTime at,
                              std::uint32_t tenant) {
  DAS_CHECK(at >= arrival);
  ++count_of(tenant_counts_.at(tenant), how);
  if (in_window(arrival)) ++count_of(tenant_measured_.at(tenant), how);
}

RequestCounts Metrics::counts() const {
  RequestCounts total;
  for (const RequestCounts& c : tenant_counts_) total += c;
  return total;
}

RequestCounts Metrics::measured() const {
  RequestCounts total;
  for (const RequestCounts& c : tenant_measured_) total += c;
  return total;
}

void Metrics::record_operation(SimTime server_arrival, SimTime completion,
                               Duration wait) {
  DAS_CHECK(completion >= server_arrival);
  if (!in_window(server_arrival)) return;
  op_latency_.add(completion - server_arrival);
  op_wait_.add(wait);
}

namespace {

using R = ExperimentResult;
using T = TenantOutcome;
using enum Block;
using Better::kHigher;
using Better::kLower;

// Rows are in JSON writing order; tests/core/test_bench_schema.cpp pins the
// bytes they produce.
constexpr ResultField kResultFields[] = {
    {kTop, "requests_measured", [](const R& r) { return r.requests_measured; }},
    {kTop, "mean_rct_us", [](const R& r) { return r.rct.mean; },
     "RCT mean (us)", 1, kLower},
    {kTop, "p50_us", [](const R& r) { return r.rct.p50; }},
    {kTop, "p95_us", [](const R& r) { return r.rct.p95; }},
    {kTop, "p99_us", [](const R& r) { return r.rct.p99; }, "RCT p99 (us)", 1, kLower},
    {kTop, "p999_us", [](const R& r) { return r.rct.p999; },
     "RCT p999 (us)", 1, kLower},
    {kTop, "max_us", [](const R& r) { return r.rct.max; }},
    {kTop, "mean_util", [](const R& r) { return r.mean_server_utilization; },
     "mean server utilisation", 3},
    {kTop, "max_util", [](const R& r) { return r.max_server_utilization; },
     "max server utilisation", 3},
    {kMechanism, "ops_deferred", [](const R& r) { return r.ops_deferred; },
     "ops deferred"},
    {kMechanism, "ops_resumed", [](const R& r) { return r.ops_resumed; }},
    {kMechanism, "ops_aged", [](const R& r) { return r.ops_aged; }, "ops aged"},
    {kMechanism, "reranks_applied", [](const R& r) { return r.reranks_applied; },
     "reranks applied"},
    {kBreakdown, "requests", [](const R& r) { return r.breakdown.requests; }},
    {kBreakdown, "mean_rct_us", [](const R& r) { return r.breakdown.mean_rct_us; }},
    {kBreakdown, "network_us", [](const R& r) { return r.breakdown.mean_network_us; }},
    {kBreakdown, "runnable_wait_us",
     [](const R& r) { return r.breakdown.mean_runnable_wait_us; }},
    {kBreakdown, "deferred_wait_us",
     [](const R& r) { return r.breakdown.mean_deferred_wait_us; },
     "mean deferred wait (us)"},
    {kBreakdown, "service_us", [](const R& r) { return r.breakdown.mean_service_us; }},
    {kBreakdown, "straggler_slack_us",
     [](const R& r) { return r.breakdown.mean_straggler_slack_us; }},
    {kDegradation, "availability", [](const R& r) { return r.availability; },
     "availability (completed / settled)", 4, kHigher},
    {kDegradation, "requests_completed",
     [](const R& r) { return r.requests_completed; }},
    {kDegradation, "requests_failed", [](const R& r) { return r.requests_failed; }},
    {kDegradation, "requests_completed_after_failover",
     [](const R& r) { return r.requests_completed_after_failover; }},
    {kDegradation, "ops_failed_over", [](const R& r) { return r.ops_failed_over; },
     "ops failed over"},
    {kDegradation, "ops_abandoned", [](const R& r) { return r.ops_abandoned; }},
    {kDegradation, "suspicions_raised", [](const R& r) { return r.suspicions_raised; }},
    {kDegradation, "ops_dropped_crashed",
     [](const R& r) { return r.ops_dropped_crashed; }},
    {kDegradation, "server_crashes", [](const R& r) { return r.server_crashes; }},
    {kDegradation, "server_recoveries", [](const R& r) { return r.server_recoveries; }},
    {kDegradation, "messages_dropped_partition",
     [](const R& r) { return r.net_messages_dropped_partition; }},
    {kOverload, "goodput_rps", [](const R& r) { return r.goodput_rps; },
     "goodput (completed requests/s)", 1, kHigher},
    {kOverload, "throughput_rps", [](const R& r) { return r.throughput_rps; },
     "throughput (settled requests/s)"},
    {kOverload, "requests_shed", [](const R& r) { return r.requests_shed; },
     "requests shed"},
    {kOverload, "requests_shed_admission",
     [](const R& r) { return r.requests_shed_admission; }},
    {kOverload, "requests_expired", [](const R& r) { return r.requests_expired; },
     "requests expired"},
    {kOverload, "requests_shed_measured",
     [](const R& r) { return r.requests_shed_measured; }},
    {kOverload, "requests_expired_measured",
     [](const R& r) { return r.requests_expired_measured; }},
    {kOverload, "ops_rejected_busy", [](const R& r) { return r.ops_rejected_busy; }},
    {kOverload, "ops_shed_sojourn", [](const R& r) { return r.ops_shed_sojourn; }},
    {kOverload, "ops_expired_dropped",
     [](const R& r) { return r.ops_expired_dropped; }},
    {kOverload, "wasted_service_us", [](const R& r) { return r.wasted_service_us; },
     "wasted service (us)", 1, kLower},
    {kStorage, "flushes", [](const R& r) { return r.store_flushes; }},
    {kStorage, "compactions", [](const R& r) { return r.store_compactions; }},
    {kStorage, "write_stalls", [](const R& r) { return r.store_write_stalls; }},
    {kStorage, "stalled_write_ops",
     [](const R& r) { return r.store_stalled_write_ops; }},
    {kStorage, "memtable_hits", [](const R& r) { return r.store_memtable_hits; }},
    {kStorage, "level_reads", [](const R& r) { return r.store_level_reads; }},
    {kStorage, "compaction_busy_us",
     [](const R& r) { return r.store_compaction_busy_us; }},
    {kStorage, "write_stall_us", [](const R& r) { return r.store_write_stall_us; }},
    {kTop, "jain_fairness", [](const R& r) { return r.jain_fairness; },
     "Jain index over per-tenant mean RCT", 4, kHigher},
    {kLast, "wall_seconds", [](const R& r) { return r.wall_seconds; }},
    {kNone, "progress_messages", [](const R& r) { return r.progress_messages; },
     "progress messages"},
};

constexpr TenantField kTenantFields[] = {
    {kTop, "share", [](const T& t) { return t.share; }},
    {kTop, "requests_generated", [](const T& t) { return t.requests_generated; }},
    {kTop, "requests_completed", [](const T& t) { return t.requests_completed; }},
    {kTop, "requests_failed", [](const T& t) { return t.requests_failed; }},
    {kTop, "requests_measured", [](const T& t) { return t.requests_measured; }},
    {kTop, "requests_failed_measured",
     [](const T& t) { return t.requests_failed_measured; }},
    {kTop, "requests_shed", [](const T& t) { return t.requests_shed; }},
    {kTop, "requests_expired", [](const T& t) { return t.requests_expired; }},
    {kTop, "requests_shed_measured",
     [](const T& t) { return t.requests_shed_measured; }},
    {kTop, "requests_expired_measured",
     [](const T& t) { return t.requests_expired_measured; }},
    {kTop, "mean_rct_us", [](const T& t) { return t.rct.mean; }},
    {kTop, "p50_us", [](const T& t) { return t.rct.p50; }},
    {kTop, "p95_us", [](const T& t) { return t.rct.p95; }},
    {kTop, "p99_us", [](const T& t) { return t.rct.p99; }},
    {kTop, "p999_us", [](const T& t) { return t.rct.p999; }},
    {kTop, "max_us", [](const T& t) { return t.rct.max; }},
    {kTop, "goodput_share", [](const T& t) { return t.goodput_share; }},
};

}  // namespace

double gain_over_fcfs(double fcfs, double candidate, Better better) {
  if (better == Better::kNone || !(fcfs > 0))
    return std::numeric_limits<double>::quiet_NaN();
  const double ratio = candidate / fcfs;
  return better == Better::kLower ? 1.0 - ratio : ratio - 1.0;
}

const char* json_object(Block block) {
  switch (block) {
    case Block::kBreakdown: return "breakdown";
    case Block::kDegradation: return "degradation";
    case Block::kOverload: return "overload";
    case Block::kStorage: return "storage";
    default: return nullptr;
  }
}

std::span<const ResultField> result_fields() { return kResultFields; }

std::span<const TenantField> tenant_fields() { return kTenantFields; }

}  // namespace das::core
