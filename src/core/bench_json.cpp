#include "core/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace das::core {

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // JSON has no NaN/Inf
    return;
  }
  // max_digits10 round-trips the exact double, so two emissions of the same
  // deterministic result diff clean.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void render_bench_json(std::ostream& os, const std::string& experiment,
                       const std::vector<SweepOutcome>& rows) {
  // FCFS baselines per point label, for the gain columns.
  const auto fcfs_mean = [&](const std::string& point) -> double {
    for (const SweepOutcome& row : rows) {
      if (row.experiment == experiment && row.point == point &&
          row.policy == sched::Policy::kFcfs)
        return row.result.rct.mean;
    }
    return 0.0;
  };

  // v4: added the always-present "storage" block (store-model counters;
  // all-zero under the synthetic model).
  // v5: added "jain_fairness" and the "tenants" array (per-tenant RCT and
  // accounting; empty for single-tenant runs).
  // v6: added the always-present "overload" block (goodput/throughput,
  // shed/expired counters; all-zero with the layer off) and the per-tenant
  // shed/expired/goodput_share fields.
  os << "{\n  \"schema_version\": 6,\n  \"experiment\": ";
  json_string(os, experiment);
  os << ",\n  \"points\": [";
  bool first = true;
  for (const SweepOutcome& row : rows) {
    if (row.experiment != experiment) continue;
    os << (first ? "\n" : ",\n") << "    {\n      \"point\": ";
    first = false;
    json_string(os, row.point);
    os << ",\n      \"policy\": ";
    json_string(os, sched::to_string(row.policy));
    const ExperimentResult& r = row.result;
    os << ",\n      \"seed\": " << row.seed;
    os << ",\n      \"requests_measured\": " << r.requests_measured;
    const auto field = [&](const char* name, double v) {
      os << ",\n      \"" << name << "\": ";
      json_double(os, v);
    };
    field("mean_rct_us", r.rct.mean);
    field("p50_us", r.rct.p50);
    field("p95_us", r.rct.p95);
    field("p99_us", r.rct.p99);
    field("p999_us", r.rct.p999);
    field("max_us", r.rct.max);
    field("mean_util", r.mean_server_utilization);
    field("max_util", r.max_server_utilization);
    os << ",\n      \"ops_deferred\": " << r.ops_deferred;
    os << ",\n      \"ops_resumed\": " << r.ops_resumed;
    os << ",\n      \"ops_aged\": " << r.ops_aged;
    os << ",\n      \"reranks_applied\": " << r.reranks_applied;
    os << ",\n      \"breakdown\": {\n        \"requests\": "
       << r.breakdown.requests;
    const auto bd_field = [&](const char* name, double v) {
      os << ",\n        \"" << name << "\": ";
      json_double(os, v);
    };
    bd_field("mean_rct_us", r.breakdown.mean_rct_us);
    bd_field("network_us", r.breakdown.mean_network_us);
    bd_field("runnable_wait_us", r.breakdown.mean_runnable_wait_us);
    bd_field("deferred_wait_us", r.breakdown.mean_deferred_wait_us);
    bd_field("service_us", r.breakdown.mean_service_us);
    bd_field("straggler_slack_us", r.breakdown.mean_straggler_slack_us);
    os << "\n      }";
    os << ",\n      \"degradation\": {\n        \"availability\": ";
    json_double(os, r.availability);
    os << ",\n        \"requests_completed\": " << r.requests_completed;
    os << ",\n        \"requests_failed\": " << r.requests_failed;
    os << ",\n        \"requests_completed_after_failover\": "
       << r.requests_completed_after_failover;
    os << ",\n        \"ops_failed_over\": " << r.ops_failed_over;
    os << ",\n        \"ops_abandoned\": " << r.ops_abandoned;
    os << ",\n        \"suspicions_raised\": " << r.suspicions_raised;
    os << ",\n        \"ops_dropped_crashed\": " << r.ops_dropped_crashed;
    os << ",\n        \"server_crashes\": " << r.server_crashes;
    os << ",\n        \"server_recoveries\": " << r.server_recoveries;
    os << ",\n        \"messages_dropped_partition\": "
       << r.net_messages_dropped_partition;
    os << "\n      }";
    os << ",\n      \"overload\": {\n        \"goodput_rps\": ";
    json_double(os, r.goodput_rps);
    os << ",\n        \"throughput_rps\": ";
    json_double(os, r.throughput_rps);
    os << ",\n        \"requests_shed\": " << r.requests_shed;
    os << ",\n        \"requests_shed_admission\": "
       << r.requests_shed_admission;
    os << ",\n        \"requests_expired\": " << r.requests_expired;
    os << ",\n        \"requests_shed_measured\": " << r.requests_shed_measured;
    os << ",\n        \"requests_expired_measured\": "
       << r.requests_expired_measured;
    os << ",\n        \"ops_rejected_busy\": " << r.ops_rejected_busy;
    os << ",\n        \"ops_shed_sojourn\": " << r.ops_shed_sojourn;
    os << ",\n        \"ops_expired_dropped\": " << r.ops_expired_dropped;
    os << ",\n        \"wasted_service_us\": ";
    json_double(os, r.wasted_service_us);
    os << "\n      }";
    os << ",\n      \"storage\": {\n        \"flushes\": " << r.store_flushes;
    os << ",\n        \"compactions\": " << r.store_compactions;
    os << ",\n        \"write_stalls\": " << r.store_write_stalls;
    os << ",\n        \"stalled_write_ops\": " << r.store_stalled_write_ops;
    os << ",\n        \"memtable_hits\": " << r.store_memtable_hits;
    os << ",\n        \"level_reads\": " << r.store_level_reads;
    os << ",\n        \"compaction_busy_us\": ";
    json_double(os, r.store_compaction_busy_us);
    os << ",\n        \"write_stall_us\": ";
    json_double(os, r.store_write_stall_us);
    os << "\n      }";
    os << ",\n      \"jain_fairness\": ";
    json_double(os, r.jain_fairness);
    os << ",\n      \"tenants\": [";
    bool first_tenant = true;
    for (const TenantOutcome& tenant : r.tenants) {
      os << (first_tenant ? "\n" : ",\n") << "        {\n          \"name\": ";
      first_tenant = false;
      json_string(os, tenant.name);
      os << ",\n          \"share\": ";
      json_double(os, tenant.share);
      os << ",\n          \"requests_generated\": " << tenant.requests_generated;
      os << ",\n          \"requests_completed\": " << tenant.requests_completed;
      os << ",\n          \"requests_failed\": " << tenant.requests_failed;
      os << ",\n          \"requests_measured\": " << tenant.requests_measured;
      os << ",\n          \"requests_failed_measured\": "
         << tenant.requests_failed_measured;
      os << ",\n          \"requests_shed\": " << tenant.requests_shed;
      os << ",\n          \"requests_expired\": " << tenant.requests_expired;
      os << ",\n          \"requests_shed_measured\": "
         << tenant.requests_shed_measured;
      os << ",\n          \"requests_expired_measured\": "
         << tenant.requests_expired_measured;
      const auto tenant_field = [&](const char* name, double v) {
        os << ",\n          \"" << name << "\": ";
        json_double(os, v);
      };
      tenant_field("mean_rct_us", tenant.rct.mean);
      tenant_field("p50_us", tenant.rct.p50);
      tenant_field("p95_us", tenant.rct.p95);
      tenant_field("p99_us", tenant.rct.p99);
      tenant_field("p999_us", tenant.rct.p999);
      tenant_field("max_us", tenant.rct.max);
      tenant_field("goodput_share", tenant.goodput_share);
      os << "\n        }";
    }
    os << (first_tenant ? "]" : "\n      ]");
    const double fcfs = fcfs_mean(row.point);
    os << ",\n      \"gain_vs_fcfs_pct\": ";
    if (fcfs > 0) {
      json_double(os, 100.0 * (1.0 - r.rct.mean / fcfs));
    } else {
      os << "null";
    }
    field("wall_seconds", r.wall_seconds);
    os << "\n    }";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
}

std::string bench_json_string(const std::string& experiment,
                              const std::vector<SweepOutcome>& rows) {
  std::ostringstream os;
  render_bench_json(os, experiment, rows);
  return os.str();
}

void write_bench_json(const std::string& path, const std::string& experiment,
                      const std::vector<SweepOutcome>& rows) {
  std::ofstream out{path};
  DAS_CHECK_MSG(out.good(), "cannot open JSON output file: " + path);
  render_bench_json(out, experiment, rows);
  out.flush();
  DAS_CHECK_MSG(out.good(), "failed writing JSON output file: " + path);
}

void render_perf_json(std::ostream& os, const std::string& experiment,
                      const std::vector<PerfPoint>& points) {
  os << "{\n  \"schema_version\": 4,\n  \"experiment\": ";
  json_string(os, experiment);
  os << ",\n  \"points\": [";
  bool first = true;
  for (const PerfPoint& p : points) {
    os << (first ? "\n" : ",\n") << "    {\n      \"point\": ";
    first = false;
    json_string(os, p.point);
    os << ",\n      \"events\": " << p.events;
    os << ",\n      \"lane_events\": " << p.lane_events;
    os << ",\n      \"op_deliveries\": " << p.op_deliveries;
    os << ",\n      \"response_deliveries\": " << p.response_deliveries;
    os << ",\n      \"progress_deliveries\": " << p.progress_deliveries;
    os << ",\n      \"other_events\": " << p.other_events;
    os << ",\n      \"progress_rekeyed\": " << p.progress_rekeyed;
    os << ",\n      \"progress_unqueued\": " << p.progress_unqueued;
    os << ",\n      \"wall_seconds\": ";
    json_double(os, p.wall_seconds);
    os << ",\n      \"events_per_sec\": ";
    json_double(os, p.events_per_sec);
    os << ",\n      \"sim_time_us\": ";
    json_double(os, p.sim_time_us);
    os << "\n    }";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
}

std::string perf_json_string(const std::string& experiment,
                             const std::vector<PerfPoint>& points) {
  std::ostringstream os;
  render_perf_json(os, experiment, points);
  return os.str();
}

void write_perf_json(const std::string& path, const std::string& experiment,
                     const std::vector<PerfPoint>& points) {
  std::ofstream out{path};
  DAS_CHECK_MSG(out.good(), "cannot open JSON output file: " + path);
  render_perf_json(out, experiment, points);
  out.flush();
  DAS_CHECK_MSG(out.good(), "failed writing JSON output file: " + path);
}

}  // namespace das::core
