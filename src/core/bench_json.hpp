// Structured JSON results emitter.
//
// Every grid dassim runs (registered or ad-hoc) can persist its
// rows as BENCH_<experiment>.json so the perf trajectory is machine-readable
// instead of living only in printed tables. Schema (schema_version 6):
//
//   {"schema_version": 6, "experiment": "E1_load_mean", "points": [
//     {"point": "load=0.7", "policy": "das", "seed": 20260705,
//      <result fields>,        // result_fields() (core/metrics.hpp) in its
//                              // order, nested in the always-present
//                              // "breakdown", "degradation", "overload" and
//                              // "storage" objects by block
//      "tenants": [{"name": "t0", <tenant_fields()>}, ...],  // [] untenanted
//      "gain_vs_fcfs_pct": ...,  // null when the point has no FCFS row
//      "wall_seconds": ...},     // NOT deterministic; everything else is
//     ...]}
//
// schema_version history: 6 added the always-present "overload" object
// (goodput/throughput, shed/expired accounting) and the per-tenant
// shed/expired/goodput_share fields; 5 added "jain_fairness" and the
// per-tenant "tenants" array (workload registry / multi-tenancy); 4 added the
// always-present "storage" object (store-model counters); 3 added the
// per-point "degradation" object (fault plans, failover and
// graceful-degradation accounting); 2 added the mechanism counters and the
// per-point "breakdown" object; 1 was the initial shape. (The perf emitter
// below keeps its own schema_version.)
//
// Points appear in registration order; all fields except wall_seconds are
// bit-reproducible for a fixed seed, so diffs of two emissions reveal real
// behaviour changes. The writer is dependency-free and always emits valid
// JSON (doubles are printed with round-trip precision; non-finite values,
// which JSON cannot represent, become null).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace das::core {

/// Renders the rows of one experiment as a JSON document (trailing newline
/// included). Rows whose experiment label differs are skipped, so a mixed
/// outcome list can be split into one file per experiment.
void render_bench_json(std::ostream& os, const std::string& experiment,
                       const std::vector<SweepOutcome>& rows);

/// render_bench_json to a string.
std::string bench_json_string(const std::string& experiment,
                              const std::vector<SweepOutcome>& rows);

/// Writes BENCH_<experiment>.json-style output to `path` (DAS_CHECK on I/O
/// failure).
void write_bench_json(const std::string& path, const std::string& experiment,
                      const std::vector<SweepOutcome>& rows);

/// One throughput measurement of the perf bench (BENCH_PERF.json). The
/// counts and `sim_time_us` are deterministic for a fixed seed; the
/// wall-clock fields are what the perf trajectory tracks.
struct PerfPoint {
  std::string point;
  std::uint64_t events = 0;
  /// Subset of `events` dispatched from the simulator's delivery lane.
  std::uint64_t lane_events = 0;
  /// `events` by kind: the cluster's op, response and progress deliveries,
  /// and every other event (timers, and a microbench's own messages).
  std::uint64_t op_deliveries = 0;
  std::uint64_t response_deliveries = 0;
  std::uint64_t progress_deliveries = 0;
  std::uint64_t other_events = 0;
  /// Progress deliveries that re-keyed at least one queued op, and those
  /// that found no queued op of their request.
  std::uint64_t progress_rekeyed = 0;
  std::uint64_t progress_unqueued = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  double sim_time_us = 0;
};

/// Renders perf points as a BENCH_PERF.json document (schema_version 4, same
/// envelope as render_bench_json: {schema_version, experiment, points}).
void render_perf_json(std::ostream& os, const std::string& experiment,
                      const std::vector<PerfPoint>& points);

/// Writes BENCH_PERF.json-style output to `path` (DAS_CHECK on I/O failure).
void write_perf_json(const std::string& path, const std::string& experiment,
                     const std::vector<PerfPoint>& points);

}  // namespace das::core
