#include "core/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/metrics.hpp"

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

/// A field's value: a count as an integer, a real via json_double.
template <class Record>
void json_value(std::ostream& os, const Field<Record>& field, const Record& r) {
  if (field.is_count()) {
    os << field.count(r);
  } else {
    json_double(os, field.value(r));
  }
}

/// The "tenants" array: one object per tenant, its name then its fields.
void write_tenants(std::ostream& os, const std::vector<TenantOutcome>& tenants) {
  os << ",\n      \"tenants\": [";
  bool first = true;
  for (const TenantOutcome& tenant : tenants) {
    os << (first ? "\n" : ",\n") << "        {\n          \"name\": ";
    first = false;
    json_string(os, tenant.name);
    for (const TenantField& field : tenant_fields()) {
      os << ",\n          \"" << field.name << "\": ";
      json_value(os, field, tenant);
    }
    os << "\n        }";
  }
  os << (first ? "]" : "\n      ]");
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
    os << ",\n      \"seed\": " << row.seed;
    const ExperimentResult& r = row.result;
    // The fields in table order; a change of block closes the nested object
    // being written and opens the next one.
    Block at = Block::kTop;
    for (const ResultField& field : result_fields()) {
      if (field.block == Block::kNone) continue;
      const char* object = json_object(field.block);
      const bool opens = field.block != at;
      if (opens) {
        if (json_object(at) != nullptr) os << "\n      }";
        if (field.block == Block::kLast) {
          write_tenants(os, r.tenants);
          os << ",\n      \"gain_vs_fcfs_pct\": ";  // null without an FCFS row
          json_double(os, 100.0 * gain_over_fcfs(fcfs_mean(row.point), r.rct.mean));
        }
        if (object != nullptr) os << ",\n      \"" << object << "\": {";
        at = field.block;
      }
      os << (object != nullptr && opens ? "\n" : ",\n")
         << (object != nullptr ? "        \"" : "      \"") << field.name << "\": ";
      json_value(os, field, r);
    }
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
  if (!out.good()) throw std::runtime_error("cannot open JSON output file: " + path);
  render_bench_json(out, experiment, rows);
  out.flush();
  if (!out.good()) throw std::runtime_error("failed writing JSON output file: " + path);
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

void write_perf_json(const std::string& path, const std::string& experiment,
                     const std::vector<PerfPoint>& points) {
  std::ofstream out{path};
  if (!out.good()) throw std::runtime_error("cannot open JSON output file: " + path);
  render_perf_json(out, experiment, points);
  out.flush();
  if (!out.good()) throw std::runtime_error("failed writing JSON output file: " + path);
}

}  // namespace das::core
