// Engine throughput measurement (the perf trajectory).
//
// Four fixed workloads bracket the hot path: a pure timer ring (schedule +
// dispatch only), a cancel-heavy pattern (hedging-style: most timers armed
// are cancelled before firing), a network streaming loop (send + FIFO clamp +
// delivery), and full cluster runs under FCFS and DAS (everything at once:
// scheduler bookkeeping, progress fan-in, metrics). Each point reports
// dispatched events (how many came from the delivery lane, and how many were
// op, response and progress deliveries, with the progress outcome split),
// wall seconds and events/sec; `bench_throughput` writes the result as
// BENCH_PERF.json (schema_version 4) and CI gates the counts exactly and
// events/sec against the committed baseline.
//
// Event counts and simulated time are deterministic for a fixed scale; only
// the wall-clock fields vary run to run.
#pragma once

#include <vector>

#include "core/bench_json.hpp"

namespace das::core {

struct PerfOptions {
  /// Multiplies every workload's event budget; 1.0 is the committed-baseline
  /// size (a few seconds total), CI smoke uses a smaller scale.
  double scale = 1.0;
  /// Skip the two full-cluster points (engine microbenches only).
  bool engine_only = false;
};

/// Runs the whole suite and returns one PerfPoint per workload, in a fixed
/// order: sim_timer_ring, sim_cancel_heavy, net_fifo_stream, then (unless
/// engine_only) cluster_fcfs and cluster_das.
std::vector<PerfPoint> run_perf_suite(const PerfOptions& options);

}  // namespace das::core
