// Exact per-request decomposition of the request completion time.
//
// Every request's RCT is attributed to the critical-path operation — the op
// whose response completed the request — and split into four components
// that sum EXACTLY (bitwise, not approximately) to the measured RCT:
//
//   network_us        client->server delivery of the served copy plus
//                     server->client delivery of its response
//   runnable_wait_us  time queued in the scheduler's runnable set
//   deferred_wait_us  time parked in a deferred set (DAS's LRPT-last;
//                     identically zero for policies that never defer)
//   service_us        time in service at the server
//
// plus `straggler_slack_us`, the mean idle time between a non-critical
// sibling's response and the request's completion (how much slack LRPT-last
// can safely exploit). Slack describes the siblings, not the critical path,
// so it is reported alongside the sum rather than inside it.
//
// Exactness: the four components are computed from the same doubles the
// metrics pipeline uses, but a sum of rounded differences is not bitwise the
// difference of the endpoints. The residual construction below therefore
// derives runnable_wait_us as `rct - (network + deferred + service)` and
// nudges it by at most a few ulps until the fixed-order sum reconstructs the
// measured RCT exactly; a DAS_CHECK verifies both the bitwise identity and
// that the residual agrees with the directly measured runnable wait to
// float-noise tolerance. The invariant is enforced on EVERY request of
// EVERY run (collection is always on — it is pure arithmetic on values
// already in hand), so a broken attribution fails loudly, not statistically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace das::trace {

/// Per-op service timing echoed by the server on each response. This is
/// observability side-channel state, NOT protocol payload: it is excluded
/// from the wire size model (core/wire.hpp), so enabling the breakdown never
/// changes simulated network bytes.
struct OpServiceTiming {
  SimTime enqueued_at = 0;    // joined the scheduler queue
  SimTime service_start = 0;  // entered service
  SimTime service_end = 0;    // left service (the response's completion time)
  /// Cumulative time the op spent parked in a deferred set.
  Duration deferred_us = 0;
  bool valid = false;
};

/// One request's attribution. total_us() == rct_us holds bitwise.
struct RequestBreakdown {
  SimTime arrival = 0;  // request arrival (window filtering key)
  double rct_us = 0;
  double network_us = 0;
  double runnable_wait_us = 0;
  double deferred_wait_us = 0;
  double service_us = 0;
  /// Mean over non-critical siblings of (completion - sibling response
  /// delivery); 0 for fanout-1 requests. Not part of the exact sum.
  double straggler_slack_us = 0;

  /// The fixed evaluation order the exactness guarantee is stated in.
  double total_us() const {
    return ((network_us + deferred_wait_us) + service_us) + runnable_wait_us;
  }
};

/// Builds the attribution of one request from the critical op's timing echo.
/// `straggler_slack_sum_us` is the SUM over the non-critical siblings.
/// DAS_CHECKs the cut-point ordering (arrival <= enqueue <= start <= end <=
/// completion) and the bitwise identity total_us() == rct_us.
RequestBreakdown make_request_breakdown(SimTime arrival, SimTime completion,
                                        const OpServiceTiming& critical,
                                        double straggler_slack_sum_us,
                                        std::size_t fanout);

/// Aggregate attribution over the measurement window of one run.
struct BreakdownSummary {
  std::uint64_t requests = 0;
  double mean_rct_us = 0;
  double mean_network_us = 0;
  double mean_runnable_wait_us = 0;
  double mean_deferred_wait_us = 0;
  double mean_service_us = 0;
  double mean_straggler_slack_us = 0;
};

/// Accumulates per-request breakdowns (window-filtered, like Metrics) into
/// component means; optionally retains the raw rows up to a cap for tests,
/// exact RCT quantiles and offline analysis.
class BreakdownCollector {
 public:
  void set_window(SimTime begin, SimTime end) {
    window_begin_ = begin;
    window_end_ = end;
  }
  /// Retain up to `cap` per-request rows (0 = aggregate only, the default).
  /// The rows are reserved once, for min(cap, 1.05 x `expected_rows` + 1024)
  /// rows; past that they grow by doubling, so an estimate that falls short
  /// costs copies, never rows.
  void set_retain_cap(std::size_t cap, double expected_rows);

  void record(const RequestBreakdown& breakdown);

  BreakdownSummary summary() const;
  const std::vector<RequestBreakdown>& rows() const { return rows_; }
  /// Rows that fell past the retention cap (aggregates still include them).
  std::uint64_t rows_dropped() const { return rows_dropped_; }

 private:
  SimTime window_begin_ = 0;
  SimTime window_end_ = kTimeInfinity;
  std::size_t retain_cap_ = 0;
  std::vector<RequestBreakdown> rows_;
  std::uint64_t rows_dropped_ = 0;
  StreamingStats rct_;
  StreamingStats network_;
  StreamingStats runnable_;
  StreamingStats deferred_;
  StreamingStats service_;
  StreamingStats slack_;
};

}  // namespace das::trace
