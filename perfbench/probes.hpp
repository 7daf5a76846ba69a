// Layer probes: timed calls into each layer's public API, fed with one
// workload's own inputs (its config, key catalogue and recorded operation
// stream) and set to the depths observed in its traced run. Each probe times
// its layer in isolation; main.cpp projects the per-call times by the run's
// call counts and reports what they do not explain as a residual.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "workload/replay.hpp"

namespace perfbench {

struct ProbeInputs {
  const das::core::ClusterConfig* config = nullptr;
  /// Value-size catalogue as the cluster drew it at construction.
  std::vector<das::Bytes> key_sizes;
  /// Every operation the clients generated (one record per read key, one per
  /// written key), in generation order.
  std::vector<das::workload::ReplayRecord> ops;
  /// Gauges sampled over the traced run's measure window.
  double pending_mean = 1;
  double queue_mean = 1;
  /// Mean simulated queueing wait of an operation (µs).
  double op_wait_mean_us = 0;
  /// Mean encoded message size (bytes).
  double message_bytes_mean = 64;
};

/// Per-call host times in nanoseconds, plus the set-up pieces in seconds.
/// A probe whose API is absent from the build reports 0.
struct ProbeResults {
  double sim_ns_per_event = 0;    // schedule + dispatch of a 160-byte closure
  double net_ns_per_send = 0;     // send + delivery dispatch of one message
  double sched_ns_per_op = 0;     // enqueue + dequeue at the observed depth
  double sched_ns_per_progress = 0;
  double select_ns_per_pick = 0;  // replica lookup + selector pick
  double store_ns_per_op = 0;     // engine get (+ LSM pricing when enabled)
  double store_ns_per_put = 0;    // Server::populate, per key copy
  double workload_ns_per_request = 0;
  double workload_generator_build_s = 0;
  double workload_catalogue_s = 0;
};

ProbeResults run_probes(const ProbeInputs& in);

}  // namespace perfbench
