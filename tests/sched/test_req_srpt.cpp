// req-srpt is an option set of DAS (deferral and aging off), reached only
// through the policy factory; these tests pin its request-level SRPT order
// and what sets it apart from das-nd.
#include <gtest/gtest.h>

#include "sched/scheduler.hpp"
#include "sched_test_util.hpp"

namespace das::sched {
namespace {

using testing::OpBuilder;

ProgressUpdate progress(double total) {
  ProgressUpdate u;
  u.remaining_total_us = total;
  return u;
}

TEST(ReqSrpt, OrdersByTotalRemainingDemand) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(101).total(300).build(), 0);
  s->enqueue(OpBuilder{2}.request(102).total(100).build(), 0);
  s->enqueue(OpBuilder{3}.request(103).total(200).build(), 0);
  EXPECT_EQ(s->dequeue(1).op_id, 2u);
  EXPECT_EQ(s->dequeue(1).op_id, 3u);
  EXPECT_EQ(s->dequeue(1).op_id, 1u);
}

TEST(ReqSrpt, SiblingOpsShareRequestKey) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(500).total(50).build(), 0);
  s->enqueue(OpBuilder{2}.request(500).total(50).build(), 1);
  s->enqueue(OpBuilder{3}.request(501).total(10).build(), 2);
  EXPECT_EQ(s->dequeue(3).op_id, 3u);  // smaller request first
  EXPECT_EQ(s->dequeue(3).op_id, 1u);  // then siblings in arrival order
  EXPECT_EQ(s->dequeue(3).op_id, 2u);
}

TEST(ReqSrpt, ProgressShrinksKeyAndReorders) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(601).total(300).build(), 0);
  s->enqueue(OpBuilder{2}.request(602).total(100).build(), 0);
  // Request 601's siblings elsewhere completed: now only 20us remain.
  s->on_request_progress(601, progress(20.0), 1.0);
  EXPECT_EQ(s->dequeue(2).op_id, 1u);
  EXPECT_EQ(s->dequeue(2).op_id, 2u);
}

TEST(ReqSrpt, ProgressForUnknownRequestIsIgnored) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(1).total(10).build(), 0);
  s->on_request_progress(999, progress(1.0), 1.0);
  EXPECT_EQ(s->dequeue(1).op_id, 1u);
}

TEST(ReqSrpt, ProgressAfterDequeueIsIgnored) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(1).total(10).build(), 0);
  s->dequeue(1);
  s->on_request_progress(1, progress(5.0), 2.0);  // must not crash
  EXPECT_TRUE(s->empty());
}

TEST(ReqSrpt, ProgressUpdatesAllSiblingOps) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(700).total(500).build(), 0);
  s->enqueue(OpBuilder{2}.request(700).total(500).build(), 0);
  s->enqueue(OpBuilder{3}.request(701).total(100).build(), 0);
  s->on_request_progress(700, progress(10.0), 1.0);
  EXPECT_EQ(s->dequeue(1).op_id, 1u);
  EXPECT_EQ(s->dequeue(1).op_id, 2u);
  EXPECT_EQ(s->dequeue(1).op_id, 3u);
}

TEST(ReqSrpt, BacklogAccountingSurvivesProgress) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  s->enqueue(OpBuilder{1}.request(1).demand(40).total(100).build(), 0);
  s->on_request_progress(1, progress(60.0), 1.0);
  EXPECT_DOUBLE_EQ(s->backlog_demand_us(), 40.0);  // demand, not key
  s->dequeue(1);
  EXPECT_DOUBLE_EQ(s->backlog_demand_us(), 0.0);
}

TEST(ReqSrpt, ProgressMovesTheKeyAndTheTags) {
  // Progress rewrites a queued op's tags as well as its key: the op leaves
  // with the updated total (what a preempt-resume server compares and
  // re-enqueues on), exactly as under das-nd.
  const SchedulerPtr srpt = make_scheduler(Policy::kReqSrpt);
  const SchedulerPtr nd = make_scheduler(Policy::kDasNoDefer);
  for (Scheduler* s : {srpt.get(), nd.get()}) {
    s->enqueue(OpBuilder{1}.request(1).total(300).build(), 0);
    s->enqueue(OpBuilder{2}.request(2).total(100).build(), 0);
    s->on_request_progress(1, progress(20.0), 1.0);
    EXPECT_EQ(s->mechanism_counters().reranks_applied, 1u);
    const OpContext retagged = s->dequeue(2);
    EXPECT_EQ(retagged.op_id, 1u);
    EXPECT_DOUBLE_EQ(retagged.total_demand_us, 20.0);
  }
}

TEST(ReqSrpt, NeverAgesUnlikeDasNd) {
  // Past max_wait the starved large request is served first under das-nd,
  // never under req-srpt.
  SchedulerConfig config;
  config.max_wait_us = 100.0;
  const SchedulerPtr nd = make_scheduler(Policy::kDasNoDefer, config);
  const SchedulerPtr srpt = make_scheduler(Policy::kReqSrpt, config);
  for (Scheduler* s : {nd.get(), srpt.get()}) {
    s->enqueue(OpBuilder{1}.request(1).total(100000).build(), 0);
    s->enqueue(OpBuilder{2}.request(2).total(10).build(), 0);
  }
  EXPECT_EQ(nd->dequeue(150.0).op_id, 1u);
  EXPECT_EQ(nd->mechanism_counters().ops_aged, 1u);
  EXPECT_EQ(srpt->dequeue(1e12).op_id, 2u);
  EXPECT_EQ(srpt->mechanism_counters().ops_aged, 0u);
}

}  // namespace
}  // namespace das::sched
