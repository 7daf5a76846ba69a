#include "sched/rein.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sched_test_util.hpp"

namespace das::sched {
namespace {

using testing::OpBuilder;

ReinSbfScheduler make_rein(Duration max_wait = 50000.0) {
  ReinSbfScheduler::Options opt;
  opt.max_wait_us = max_wait;
  return ReinSbfScheduler{opt};
}

TEST(Rein, SmallBottleneckJumpsAhead) {
  auto s = make_rein();
  // Warm the threshold with medium bottlenecks.
  for (OperationId i = 0; i < 20; ++i)
    s.enqueue(OpBuilder{i}.bottleneck(4, 100).build(), 0);
  while (!s.empty()) s.dequeue(1);

  s.enqueue(OpBuilder{100}.bottleneck(16, 800).build(), 2);  // wide
  s.enqueue(OpBuilder{101}.bottleneck(1, 20).build(), 2);    // narrow
  EXPECT_EQ(s.dequeue(3).op_id, 101u);
  EXPECT_EQ(s.dequeue(3).op_id, 100u);
}

TEST(Rein, FcfsWithinLevel) {
  auto s = make_rein();
  for (OperationId i = 0; i < 10; ++i)
    s.enqueue(OpBuilder{i}.bottleneck(2, 50).build(), static_cast<double>(i));
  for (OperationId i = 0; i < 10; ++i) EXPECT_EQ(s.dequeue(20).op_id, i);
}

TEST(Rein, ThresholdAdaptsToWorkload) {
  auto s = make_rein();
  for (OperationId i = 0; i < 200; ++i)
    s.enqueue(OpBuilder{i}.bottleneck(1, 1000).build(), 0);
  // After many 1000us bottlenecks the EWMA sits near 1000.
  EXPECT_NEAR(s.current_threshold(), 1000.0, 50.0);
  EXPECT_EQ(s.lane_for(500.0), 0u);    // below mean -> high priority
  EXPECT_EQ(s.lane_for(3000.0), 1u);   // well above mean -> low priority
}

TEST(Rein, ThresholdIsAnEwmaWithGainFivePercent) {
  auto s = make_rein();
  s.enqueue(OpBuilder{1}.bottleneck(1, 100).build(), 0);
  s.enqueue(OpBuilder{2}.bottleneck(1, 300).build(), 0);
  EXPECT_DOUBLE_EQ(s.current_threshold(), 100.0 + 0.05 * (300.0 - 100.0));
  // The ranking key is the demand-µs bottleneck, not the op count.
  s.enqueue(OpBuilder{3}.bottleneck(50, 110).build(), 0);
  EXPECT_DOUBLE_EQ(s.current_threshold(), 110.0);
}

TEST(Rein, TwoLanesSplitAtTheThreshold) {
  auto s = make_rein();
  for (OperationId i = 0; i < 100; ++i)
    s.enqueue(OpBuilder{i}.bottleneck(1, 100).build(), 0);
  while (!s.empty()) s.dequeue(1);
  ASSERT_DOUBLE_EQ(s.current_threshold(), 100.0);
  EXPECT_EQ(s.lane_for(50.0), 0u);
  EXPECT_EQ(s.lane_for(100.0), 0u);   // at the threshold: the narrow lane
  EXPECT_EQ(s.lane_for(101.0), 1u);
  EXPECT_EQ(s.lane_for(1e9), 1u);     // no third lane, however wide
  // Every wide op waits behind every narrow one, and each lane is FCFS: 150
  // and 10000 share the wide lane (the threshold is ~100, then ~600), 20 and
  // 30 the narrow one.
  s.enqueue(OpBuilder{200}.bottleneck(1, 150).build(), 2);
  s.enqueue(OpBuilder{201}.bottleneck(1, 10000).build(), 2);
  s.enqueue(OpBuilder{202}.bottleneck(1, 20).build(), 2);
  s.enqueue(OpBuilder{203}.bottleneck(1, 30).build(), 2);
  EXPECT_EQ(s.dequeue(3).op_id, 202u);
  EXPECT_EQ(s.dequeue(3).op_id, 203u);
  EXPECT_EQ(s.dequeue(3).op_id, 200u);
  EXPECT_EQ(s.dequeue(3).op_id, 201u);
}

TEST(Rein, AgingPromotesStarvedOp) {
  auto s = make_rein(/*max_wait=*/100.0);
  for (OperationId i = 0; i < 20; ++i)
    s.enqueue(OpBuilder{i}.bottleneck(1, 10).build(), 0);
  while (!s.empty()) s.dequeue(1);

  // A wide op arrives at t=10, then a stream of narrow ops keeps coming.
  s.enqueue(OpBuilder{999}.bottleneck(32, 10000).build(), 10.0);
  for (OperationId i = 100; i < 110; ++i)
    s.enqueue(OpBuilder{i}.bottleneck(1, 10).build(), 11.0);
  // Before the bound, narrow ops win.
  EXPECT_NE(s.dequeue(50.0).op_id, 999u);
  // Past the bound, the starved wide op is served next.
  EXPECT_EQ(s.dequeue(200.0).op_id, 999u);
}

TEST(Rein, FirstOpSeedsThreshold) {
  auto s = make_rein();
  EXPECT_EQ(s.lane_for(123.0), 0u);  // unseeded: everything high priority
  s.enqueue(OpBuilder{1}.bottleneck(1, 200).build(), 0);
  EXPECT_DOUBLE_EQ(s.current_threshold(), 200.0);
}

TEST(Rein, BacklogAccounting) {
  auto s = make_rein();
  s.enqueue(OpBuilder{1}.demand(25).build(), 0);
  s.enqueue(OpBuilder{2}.demand(35).build(), 0);
  EXPECT_DOUBLE_EQ(s.backlog_demand_us(), 60.0);
  s.dequeue(1);
  s.dequeue(1);
  EXPECT_DOUBLE_EQ(s.backlog_demand_us(), 0.0);
}

}  // namespace
}  // namespace das::sched
