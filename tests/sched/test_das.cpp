#include "sched/das.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sched_test_util.hpp"

namespace das::sched {
namespace {

using testing::OpBuilder;

DasScheduler make_das(DasScheduler::Options opt = {}) { return DasScheduler{opt}; }

ProgressUpdate progress(double critical, SimTime other, double total) {
  ProgressUpdate u;
  u.remaining_critical_us = critical;
  u.est_other_completion = other;
  u.remaining_total_us = total;
  return u;
}

TEST(Das, SrptFirstOnTotalRemaining) {
  auto s = make_das();
  s.enqueue(OpBuilder{1}.request(1).total(300).build(), 0);
  s.enqueue(OpBuilder{2}.request(2).total(50).build(), 0);
  s.enqueue(OpBuilder{3}.request(3).total(120).build(), 0);
  EXPECT_EQ(s.dequeue(1).op_id, 2u);
  EXPECT_EQ(s.dequeue(1).op_id, 3u);
  EXPECT_EQ(s.dequeue(1).op_id, 1u);
}

TEST(Das, TiesBreakByArrival) {
  auto s = make_das();
  for (OperationId i = 0; i < 8; ++i)
    s.enqueue(OpBuilder{i}.request(i).total(77).build(), static_cast<double>(i));
  for (OperationId i = 0; i < 8; ++i) EXPECT_EQ(s.dequeue(10).op_id, i);
}

TEST(Das, DefersOpBottleneckedFarElsewhere) {
  DasScheduler::Options opt;
  opt.defer_margin = 1.0;
  auto s = make_das(opt);
  // Backlog ~ 30us; request 9's siblings cannot finish before t=100'000, so
  // this op is parked even though its total remaining is tiny.
  s.enqueue(OpBuilder{1}.request(1).demand(30).total(500).build(), 0);
  s.enqueue(
      OpBuilder{2}.request(9).demand(10).total(20).other_completion(100000).build(),
      0);
  EXPECT_EQ(s.deferred_size(), 1u);
  EXPECT_EQ(s.size() - s.deferred_size(), 1u);
  // The non-deferred op is served first despite its larger total remaining.
  EXPECT_EQ(s.dequeue(1).op_id, 1u);
}

TEST(Das, WorkConservationServesDeferredWhenAloneInQueue) {
  auto s = make_das();
  s.enqueue(OpBuilder{1}.request(1).demand(10).other_completion(1e9).build(), 0);
  EXPECT_EQ(s.deferred_size(), 1u);
  EXPECT_EQ(s.dequeue(1).op_id, 1u);  // never idle with queued work
  EXPECT_TRUE(s.empty());
}

TEST(Das, DeferredOpWakesWhenWindowCloses) {
  DasScheduler::Options opt;
  opt.defer_margin = 1.0;
  auto s = make_das(opt);
  s.enqueue(OpBuilder{1}.request(1).demand(10).total(999).build(), 0);
  s.enqueue(OpBuilder{2}.request(2).demand(10).total(5).other_completion(50).build(),
            0);
  EXPECT_EQ(s.deferred_size(), 1u);
  // At t=45 the remaining window (5us) is smaller than the drain time
  // (20us of backlog), so op 2 migrates to the runnable set and, with the
  // smallest total remaining, is served first.
  EXPECT_EQ(s.dequeue(45.0).op_id, 2u);
  EXPECT_EQ(s.deferred_size(), 0u);
}

TEST(Das, NoSiblingsElsewhereNeverDefers) {
  auto s = make_das();
  s.enqueue(OpBuilder{1}.request(1).other_completion(0).build(), 0);
  EXPECT_EQ(s.deferred_size(), 0u);
}

TEST(Das, DeferDisabledByOption) {
  DasScheduler::Options opt;
  opt.defer = false;
  auto s = make_das(opt);
  s.enqueue(OpBuilder{1}.request(1).other_completion(1e12).build(), 0);
  EXPECT_EQ(s.deferred_size(), 0u);
  EXPECT_EQ(s.mechanism_counters().ops_deferred, 0u);
}

TEST(Das, ProgressRekeysActiveOrdering) {
  auto s = make_das();
  s.enqueue(OpBuilder{1}.request(1).total(300).build(), 0);
  s.enqueue(OpBuilder{2}.request(2).total(100).build(), 0);
  s.on_request_progress(1, progress(10.0, 0, 10.0), 1.0);
  // The same tags again re-key nothing; neither outcome counts it.
  s.on_request_progress(1, progress(10.0, 0, 10.0), 1.0);
  EXPECT_EQ(s.mechanism_counters().progress_rekeyed, 1u);
  EXPECT_EQ(s.mechanism_counters().progress_unqueued, 0u);
  EXPECT_EQ(s.dequeue(2).op_id, 1u);
  // Request 1 has no queued op left here.
  s.on_request_progress(1, progress(5.0, 0, 5.0), 2.0);
  EXPECT_EQ(s.mechanism_counters().progress_unqueued, 1u);
  EXPECT_EQ(s.dequeue(2).op_id, 2u);
}

TEST(Das, ProgressCanWakeDeferredOp) {
  DasScheduler::Options opt;
  opt.defer_margin = 1.0;
  auto s = make_das(opt);
  s.enqueue(OpBuilder{1}.request(1).demand(10).total(400).build(), 0);
  s.enqueue(
      OpBuilder{2}.request(2).demand(10).total(30).other_completion(100000).build(),
      0);
  EXPECT_EQ(s.deferred_size(), 1u);
  // The faraway sibling finished: no other pending work, wake up.
  s.on_request_progress(2, progress(10.0, 0, 10.0), 1.0);
  EXPECT_EQ(s.deferred_size(), 0u);
  EXPECT_EQ(s.dequeue(2).op_id, 2u);
}

TEST(Das, ProgressCanAlsoDeferActiveOp) {
  DasScheduler::Options opt;
  opt.defer_margin = 1.0;
  auto s = make_das(opt);
  s.enqueue(OpBuilder{1}.request(1).demand(10).total(400).build(), 0);
  s.enqueue(OpBuilder{2}.request(2).demand(10).total(30).build(), 0);
  EXPECT_EQ(s.deferred_size(), 0u);
  // New information: request 2 is actually blocked far elsewhere.
  s.on_request_progress(2, progress(30.0, 1e9, 30.0), 1.0);
  EXPECT_EQ(s.deferred_size(), 1u);
  EXPECT_EQ(s.dequeue(2).op_id, 1u);
}

TEST(Das, AgingServesOldestPastBound) {
  DasScheduler::Options opt;
  opt.max_wait_us = 100.0;
  auto s = make_das(opt);
  s.enqueue(OpBuilder{1}.request(1).total(100000).build(), 0);  // huge, sorts last
  for (OperationId i = 10; i < 15; ++i)
    s.enqueue(OpBuilder{i}.request(i).total(10).build(), 5.0);
  // Within the bound, small requests go first.
  EXPECT_NE(s.dequeue(50.0).op_id, 1u);
  // Past the bound, the starved op is served regardless of priority.
  EXPECT_EQ(s.dequeue(150.0).op_id, 1u);
  EXPECT_EQ(s.mechanism_counters().ops_aged, 1u);
}

TEST(Das, AgingDisabledByInfiniteBound) {
  DasScheduler::Options opt;
  opt.max_wait_us = kTimeInfinity;
  auto s = make_das(opt);
  s.enqueue(OpBuilder{1}.request(1).total(100000).build(), 0);
  s.enqueue(OpBuilder{2}.request(2).total(10).build(), 0);
  EXPECT_EQ(s.dequeue(1e12).op_id, 2u);
}

TEST(Das, SpeedEstimateScalesDrainHorizon) {
  DasScheduler::Options opt;
  opt.defer_margin = 1.0;
  auto s = make_das(opt);
  s.on_speed_estimate(0.1);  // very slow server: drain horizon 10x longer
  s.enqueue(OpBuilder{1}.request(1).demand(50).total(500).build(), 0);
  // 50us of backlog at speed 0.1 = 500us drain; a 300us-away bottleneck is
  // NOT safe to defer (drain exceeds the window).
  s.enqueue(
      OpBuilder{2}.request(2).demand(10).total(20).other_completion(300).build(), 0);
  EXPECT_EQ(s.deferred_size(), 0u);
}

TEST(Das, NonAdaptiveIgnoresSpeedEstimate) {
  DasScheduler::Options opt;
  opt.adaptive = false;
  auto s = make_das(opt);
  s.on_speed_estimate(0.01);
  EXPECT_DOUBLE_EQ(s.speed_estimate(), 1.0);
}

TEST(Das, CriticalPathVariantOrdersByCritical) {
  DasScheduler::Options opt;
  opt.primary_key = DasScheduler::PrimaryKey::kCriticalPath;
  auto s = make_das(opt);
  // Request 1: large total but small critical path; kCriticalPath prefers it.
  s.enqueue(OpBuilder{1}.request(1).total(500).critical(10).build(), 0);
  s.enqueue(OpBuilder{2}.request(2).total(50).critical(40).build(), 0);
  EXPECT_EQ(s.dequeue(1).op_id, 1u);
}

TEST(Das, ProgressForUnknownRequestIgnored) {
  auto s = make_das();
  s.enqueue(OpBuilder{1}.request(1).build(), 0);
  s.on_request_progress(999, progress(1, 0, 1), 1.0);
  EXPECT_EQ(s.mechanism_counters().progress_unqueued, 1u);
  EXPECT_EQ(s.mechanism_counters().progress_rekeyed, 0u);
  EXPECT_EQ(s.dequeue(1).op_id, 1u);
}

TEST(Das, BacklogAndCountsStayConsistentUnderChurn) {
  DasScheduler::Options opt;
  opt.defer_margin = 1.0;
  auto s = make_das(opt);
  Rng rng{21};
  double expected_backlog = 0;
  std::size_t expected_size = 0;
  SimTime now = 0;
  for (int step = 0; step < 4000; ++step) {
    now += 1.0;
    if (expected_size == 0 || rng.chance(0.55)) {
      const double demand = rng.uniform(1, 40);
      s.enqueue(OpBuilder{static_cast<OperationId>(step)}
                    .request(rng.next_below(50))
                    .demand(demand)
                    .total(rng.uniform(1, 300))
                    .other_completion(rng.chance(0.3) ? now + rng.uniform(0, 2000) : 0)
                    .build(),
                now);
      expected_backlog += demand;
      ++expected_size;
    } else if (rng.chance(0.8)) {
      const OpContext op = s.dequeue(now);
      expected_backlog -= op.demand_us;
      --expected_size;
    } else {
      s.on_request_progress(rng.next_below(50),
                            progress(rng.uniform(1, 100),
                                     rng.chance(0.5) ? now + rng.uniform(0, 2000) : 0,
                                     rng.uniform(1, 300)),
                            now);
    }
    ASSERT_EQ(s.size(), expected_size);
    ASSERT_LE(s.deferred_size(), expected_size);
    if (expected_size > 0) {
      ASSERT_NEAR(s.backlog_demand_us(), expected_backlog, 1e-6);
    }
  }
}

}  // namespace
}  // namespace das::sched
