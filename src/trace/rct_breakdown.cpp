#include "trace/rct_breakdown.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace das::trace {

RequestBreakdown make_request_breakdown(SimTime arrival, SimTime completion,
                                        const OpServiceTiming& critical,
                                        double straggler_slack_sum_us,
                                        std::size_t fanout) {
  DAS_CHECK_MSG(critical.valid, "breakdown needs the server timing echo");
  // Cut-point ordering along the critical op's lifecycle.
  DAS_CHECK(completion >= arrival);
  DAS_CHECK(critical.enqueued_at >= arrival);
  DAS_CHECK(critical.service_start >= critical.enqueued_at);
  DAS_CHECK(critical.service_end >= critical.service_start);
  DAS_CHECK(completion >= critical.service_end);
  DAS_CHECK(critical.deferred_us >= 0);
  DAS_CHECK(fanout >= 1);

  RequestBreakdown bd;
  bd.arrival = arrival;
  // The exact expression Metrics::record_request computes — same doubles in,
  // same double out.
  bd.rct_us = completion - arrival;
  bd.network_us = (critical.enqueued_at - arrival) +
                  (completion - critical.service_end);
  bd.service_us = critical.service_end - critical.service_start;
  const double wait = critical.service_start - critical.enqueued_at;
  // Under preempt-resume the op re-enqueues mid-service, so the accumulated
  // deferred time can exceed the LAST queueing episode (the only one the
  // timing echo spans); clamp so the runnable residual stays a wait.
  bd.deferred_wait_us = std::min(critical.deferred_us, wait);
  bd.straggler_slack_us =
      fanout > 1 ? straggler_slack_sum_us / static_cast<double>(fanout - 1) : 0;

  // Residual construction: fold every rounding ulp of the decomposition into
  // the runnable-wait term, then nudge until the fixed-order sum (total_us())
  // reconstructs the measured RCT bitwise. Nudging runnable alone can fail:
  // when runnable and the sum share a binade, consecutive runnable values map
  // to sums two ulps apart under round-to-even and can straddle rct_us
  // forever. In that case shift the rounding phase instead — bump the
  // dominant sibling term by one of ITS ulps (a sub-ulp move at the sum's
  // scale) and retry; a result-ulp of phase is covered within ~64 shifts.
  double* phase = &bd.network_us;
  if (std::abs(bd.service_us) > std::abs(*phase)) phase = &bd.service_us;
  if (std::abs(bd.deferred_wait_us) > std::abs(*phase))
    phase = &bd.deferred_wait_us;
  double runnable = 0;
  bool closed = false;
  for (int shift = 0; shift < 4096 && !closed; ++shift) {
    const double partial = (bd.network_us + bd.deferred_wait_us) + bd.service_us;
    runnable = bd.rct_us - partial;
    for (int i = 0; i < 4 && partial + runnable != bd.rct_us; ++i) {
      runnable = std::nextafter(
          runnable,
          partial + runnable < bd.rct_us ? kTimeInfinity : -kTimeInfinity);
    }
    closed = partial + runnable == bd.rct_us;
    if (!closed) *phase = std::nextafter(*phase, kTimeInfinity);
  }
  bd.runnable_wait_us = runnable;
  DAS_CHECK_MSG(bd.total_us() == bd.rct_us,
                "breakdown components do not sum exactly to the RCT");
  // The residual must also agree with the direct measurement — otherwise the
  // sum is exact but the attribution itself is wrong.
  const double direct = wait - bd.deferred_wait_us;
  const double tol = 1e-6 * std::max(1.0, bd.rct_us);
  DAS_CHECK_MSG(std::abs(bd.runnable_wait_us - direct) <= tol,
                "runnable-wait residual drifted from the measured wait");
  DAS_CHECK(bd.runnable_wait_us >= -tol);
  return bd;
}

void BreakdownCollector::set_retain_cap(std::size_t cap, double expected_rows) {
  DAS_CHECK(expected_rows >= 0);
  retain_cap_ = cap;
  // The margin covers the Poisson spread of a long window, the constant that
  // of a short one. An untouched tail costs address space, not memory.
  const double estimate = 1.05 * expected_rows + 1024;
  rows_.reserve(estimate < static_cast<double>(cap)
                    ? static_cast<std::size_t>(estimate)
                    : cap);
}

void BreakdownCollector::record(const RequestBreakdown& breakdown) {
  if (breakdown.arrival < window_begin_ || breakdown.arrival >= window_end_)
    return;
  rct_.add(breakdown.rct_us);
  network_.add(breakdown.network_us);
  runnable_.add(breakdown.runnable_wait_us);
  deferred_.add(breakdown.deferred_wait_us);
  service_.add(breakdown.service_us);
  slack_.add(breakdown.straggler_slack_us);
  if (rows_.size() < retain_cap_) {
    rows_.push_back(breakdown);
  } else if (retain_cap_ > 0) {
    ++rows_dropped_;
  }
}

BreakdownSummary BreakdownCollector::summary() const {
  BreakdownSummary s;
  s.requests = rct_.count();
  if (s.requests == 0) return s;
  s.mean_rct_us = rct_.mean();
  s.mean_network_us = network_.mean();
  s.mean_runnable_wait_us = runnable_.mean();
  s.mean_deferred_wait_us = deferred_.mean();
  s.mean_service_us = service_.mean();
  s.mean_straggler_slack_us = slack_.mean();
  return s;
}

}  // namespace das::trace
