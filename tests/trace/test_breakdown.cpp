// RCT attribution: unit exactness of make_request_breakdown, the collector's
// retention semantics, and the end-to-end invariant that every
// request's components sum bitwise to its RCT across an E1-style grid of
// loads and policies.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "trace/rct_breakdown.hpp"
#include "workload/replay.hpp"

namespace das::trace {
namespace {

OpServiceTiming timing(SimTime enq, SimTime start, SimTime end,
                       Duration deferred = 0) {
  OpServiceTiming t;
  t.enqueued_at = enq;
  t.service_start = start;
  t.service_end = end;
  t.deferred_us = deferred;
  t.valid = true;
  return t;
}

TEST(RequestBreakdown, ComponentsSumExactlyToTheRct) {
  // Deliberately awkward doubles: none of the differences are representable
  // exactly, so the residual construction has to absorb rounding.
  const SimTime arrival = 10.1;
  const SimTime completion = 31.4;
  const auto bd = make_request_breakdown(
      arrival, completion, timing(13.7, 20.3, 29.9, /*deferred=*/2.5),
      /*straggler_slack_sum_us=*/4.0, /*fanout=*/3);

  EXPECT_EQ(bd.rct_us, completion - arrival);
  EXPECT_EQ(bd.total_us(), bd.rct_us);  // bitwise, not NEAR
  EXPECT_DOUBLE_EQ(bd.network_us, (13.7 - 10.1) + (31.4 - 29.9));
  EXPECT_DOUBLE_EQ(bd.service_us, 29.9 - 20.3);
  EXPECT_EQ(bd.deferred_wait_us, 2.5);
  // wait = 20.3 - 13.7 = 6.6; runnable residual = wait - deferred.
  EXPECT_NEAR(bd.runnable_wait_us, 6.6 - 2.5, 1e-9);
  // Slack is the mean over the fanout-1 non-critical siblings.
  EXPECT_EQ(bd.straggler_slack_us, 2.0);
}

TEST(RequestBreakdown, FanoutOneHasNoSlack) {
  const auto bd = make_request_breakdown(0.0, 10.0, timing(1.0, 4.0, 9.0),
                                         /*straggler_slack_sum_us=*/0.0,
                                         /*fanout=*/1);
  EXPECT_EQ(bd.straggler_slack_us, 0.0);
  EXPECT_EQ(bd.total_us(), bd.rct_us);
}

TEST(RequestBreakdown, DeferredTimeIsClampedToTheWait) {
  // Preempt-resume can accumulate more deferred time than the final queueing
  // episode spans; the attribution clamps so runnable wait stays a wait.
  const auto bd = make_request_breakdown(0.0, 20.0,
                                         timing(2.0, 5.0, 18.0, /*deferred=*/7.5),
                                         0.0, 1);
  EXPECT_EQ(bd.deferred_wait_us, 3.0);  // clamped to service_start - enqueued
  EXPECT_EQ(bd.total_us(), bd.rct_us);
}

TEST(RequestBreakdown, RejectsDisorderedCutPoints) {
  EXPECT_THROW(
      make_request_breakdown(0.0, 8.0, timing(1.0, 4.0, 9.0), 0.0, 1),
      std::logic_error);  // completion before service_end
  EXPECT_THROW(
      make_request_breakdown(0.0, 10.0, timing(5.0, 4.0, 9.0), 0.0, 1),
      std::logic_error);  // service before enqueue
  OpServiceTiming invalid;
  EXPECT_THROW(make_request_breakdown(0.0, 10.0, invalid, 0.0, 1),
               std::logic_error);  // missing timing echo
}

TEST(BreakdownCollector, RetentionCapDropsRowsNotAggregates) {
  BreakdownCollector collector;
  collector.set_retain_cap(2, 0);
  for (int i = 0; i < 5; ++i) {
    const SimTime arrival = 10.0 * i;
    collector.record(make_request_breakdown(arrival, arrival + 10.0,
                                            timing(arrival + 1.0, arrival + 4.0,
                                                   arrival + 9.0),
                                            0.0, 1));
  }
  EXPECT_EQ(collector.rows().size(), 2u);
  EXPECT_EQ(collector.rows_dropped(), 3u);
  EXPECT_EQ(collector.summary().requests, 5u);  // aggregates see every row
  // By default no rows are retained at all (aggregate-only).
  BreakdownCollector plain;
  plain.record(make_request_breakdown(0.0, 10.0, timing(1.0, 4.0, 9.0), 0.0, 1));
  EXPECT_TRUE(plain.rows().empty());
  EXPECT_EQ(plain.rows_dropped(), 0u);
}

TEST(BreakdownCollector, ReservesTheEstimateOnceAndGrowsPastIt) {
  BreakdownCollector collector;
  collector.set_retain_cap(std::numeric_limits<std::size_t>::max(), 100.0);
  EXPECT_EQ(collector.rows().capacity(), 1129u);  // 1.05 x 100 + 1024
  for (int i = 0; i < 1500; ++i) {
    const SimTime arrival = 10.0 * i;
    collector.record(make_request_breakdown(arrival, arrival + 10.0,
                                            timing(arrival + 1.0, arrival + 4.0,
                                                   arrival + 9.0),
                                            0.0, 1));
  }
  EXPECT_EQ(collector.rows().size(), 1500u);
  EXPECT_EQ(collector.rows_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: E1-style grid. Every retained request of every policy at every
// load satisfies the bitwise sum identity, and policies without a deferral
// mechanism attribute exactly zero deferred wait.

core::ClusterConfig grid_config(sched::Policy policy, double load) {
  core::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = load;
  cfg.policy = policy;
  cfg.seed = 99;
  cfg.breakdown_retain_requests = 1u << 20;  // keep every row
  return cfg;
}

core::RunWindow grid_window() {
  core::RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 15.0 * kMillisecond;
  return w;
}

TEST(BreakdownEndToEnd, SumsExactlyForEveryPolicyAndLoad) {
  for (const double load : {0.5, 0.8}) {
    for (const sched::Policy policy : sched::all_policies()) {
      SCOPED_TRACE(std::string(sched::to_string(policy)) +
                   " load=" + std::to_string(load));
      core::Cluster cluster{grid_config(policy, load), grid_window()};
      const core::ExperimentResult r = cluster.run();
      const BreakdownCollector& collector = cluster.breakdown();
      ASSERT_GT(collector.rows().size(), 0u);
      EXPECT_EQ(collector.rows().size(), r.breakdown.requests);
      EXPECT_EQ(r.breakdown.requests, r.requests_measured);
      for (const RequestBreakdown& row : collector.rows()) {
        ASSERT_EQ(row.total_us(), row.rct_us);  // bitwise, every request
        EXPECT_GE(row.network_us, 0.0);
        EXPECT_GE(row.service_us, 0.0);
        EXPECT_GE(row.deferred_wait_us, 0.0);
        EXPECT_GE(row.straggler_slack_us, 0.0);
      }
    }
  }
}

TEST(BreakdownEndToEnd, NonDeferringPoliciesAttributeZeroDeferredWait) {
  for (const sched::Policy policy :
       {sched::Policy::kFcfs, sched::Policy::kSjf, sched::Policy::kReqSrpt}) {
    SCOPED_TRACE(sched::to_string(policy));
    const core::ExperimentResult r =
        core::run_experiment(grid_config(policy, 0.8), grid_window());
    EXPECT_GT(r.breakdown.requests, 0u);
    EXPECT_EQ(r.breakdown.mean_deferred_wait_us, 0.0);
    EXPECT_EQ(r.ops_deferred, 0u);
    EXPECT_EQ(r.ops_resumed, 0u);
  }
}

TEST(BreakdownEndToEnd, MechanismCountersMatchThePolicy) {
  // FCFS exercises no mechanism at all.
  const core::ExperimentResult fcfs =
      core::run_experiment(grid_config(sched::Policy::kFcfs, 0.8), grid_window());
  EXPECT_EQ(fcfs.ops_deferred, 0u);
  EXPECT_EQ(fcfs.ops_resumed, 0u);
  EXPECT_EQ(fcfs.ops_aged, 0u);
  EXPECT_EQ(fcfs.reranks_applied, 0u);

  // DAS under load defers; every resume closes an earlier deferral.
  const core::ExperimentResult das =
      core::run_experiment(grid_config(sched::Policy::kDas, 0.8), grid_window());
  EXPECT_GT(das.ops_deferred, 0u);
  EXPECT_LE(das.ops_resumed, das.ops_deferred);
  EXPECT_GT(das.breakdown.mean_deferred_wait_us, 0.0);

  // req-srpt re-keys on progress messages but never defers.
  const core::ExperimentResult srpt = core::run_experiment(
      grid_config(sched::Policy::kReqSrpt, 0.8), grid_window());
  EXPECT_GT(srpt.reranks_applied, 0u);
  EXPECT_EQ(srpt.ops_deferred, 0u);
}

// ---------------------------------------------------------------------------
// Retained rows are reserved once from the derived request rate over the
// measure window.

/// ~4,800 measured requests at load 0.8: between two powers of two, far
/// enough from both that a doubling buffer shows.
core::ClusterConfig retention_config(double load) {
  core::ClusterConfig cfg = grid_config(sched::Policy::kFcfs, load);
  cfg.num_servers = 32;
  cfg.num_clients = 4;
  cfg.breakdown_retain_requests = std::numeric_limits<std::size_t>::max();
  return cfg;
}

core::RunWindow retention_window() {
  core::RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 100.0 * kMillisecond;
  return w;
}

TEST(BreakdownRetention, ReservesFromTheExpectedRequestCount) {
  core::Cluster cluster{retention_config(0.8), retention_window()};
  const core::ExperimentResult r = cluster.run();
  const std::vector<RequestBreakdown>& rows = cluster.breakdown().rows();
  ASSERT_EQ(rows.size(), r.rct.count);
  EXPECT_EQ(cluster.breakdown().rows_dropped(), 0u);
  // One reservation near the count, not a doubled buffer.
  EXPECT_LE(static_cast<double>(rows.capacity()),
            1.1 * static_cast<double>(rows.size()) + 1024);
}

TEST(BreakdownRetention, AnEstimateThatFallsShortStillRetainsEveryRow) {
  // A replay-only run derives no request rate, so only the 1,024-row
  // constant is reserved; its 2,000 requests in the window must grow past it.
  workload::ReplayTrace trace;
  for (int i = 0; i < 2000; ++i) {
    trace.records.push_back({2.0 * kMillisecond + 40.0 * i,
                             workload::ReplayOp::kRead,
                             static_cast<KeyId>(i % 1000), 100});
  }
  core::ClusterConfig cfg = retention_config(0.8);
  workload::TenantSpec replay;
  replay.name = "r";
  replay.replay = std::make_shared<const workload::ReplayTrace>(trace);
  cfg.tenants = {replay};
  core::Cluster cluster{cfg, retention_window()};
  ASSERT_EQ(cluster.request_rate(), 0.0);
  EXPECT_EQ(cluster.breakdown().rows().capacity(), 1024u);
  const core::ExperimentResult r = cluster.run();
  const std::vector<RequestBreakdown>& rows = cluster.breakdown().rows();
  EXPECT_EQ(r.rct.count, 2000u);
  EXPECT_EQ(rows.size(), r.rct.count);
  EXPECT_EQ(cluster.breakdown().rows_dropped(), 0u);
}

TEST(BreakdownRetention, ACapBelowTheEstimateReservesOnlyTheCap) {
  core::ClusterConfig cfg = retention_config(0.8);
  cfg.breakdown_retain_requests = 1000;
  const core::RunWindow window = retention_window();
  core::Cluster cluster{cfg, window};
  ASSERT_GT(cluster.request_rate() * window.measure_us, 1000.0);
  const core::ExperimentResult r = cluster.run();
  const BreakdownCollector& collector = cluster.breakdown();
  EXPECT_EQ(collector.rows().capacity(), 1000u);
  EXPECT_EQ(collector.rows().size(), 1000u);
  EXPECT_EQ(collector.rows_dropped(), r.rct.count - 1000);
}

}  // namespace
}  // namespace das::trace
