#include "sched/basic_policies.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched_test_util.hpp"
#include "sched/scheduler.hpp"

namespace das::sched {
namespace {

using testing::OpBuilder;

TEST(Fcfs, ServesInArrivalOrder) {
  FcfsScheduler s;
  for (OperationId i = 0; i < 10; ++i)
    s.enqueue(OpBuilder{i}.build(), static_cast<double>(i));
  for (OperationId i = 0; i < 10; ++i) EXPECT_EQ(s.dequeue(100).op_id, i);
  EXPECT_TRUE(s.empty());
}

TEST(Fcfs, StampsEnqueueTime) {
  FcfsScheduler s;
  s.enqueue(OpBuilder{1}.build(), 42.0);
  EXPECT_DOUBLE_EQ(s.dequeue(50).enqueued_at, 42.0);
}

TEST(Fcfs, BacklogTracksDemand) {
  FcfsScheduler s;
  s.enqueue(OpBuilder{1}.demand(30).build(), 0);
  s.enqueue(OpBuilder{2}.demand(20).build(), 0);
  EXPECT_DOUBLE_EQ(s.backlog_demand_us(), 50.0);
  s.dequeue(1);
  EXPECT_DOUBLE_EQ(s.backlog_demand_us(), 20.0);
  s.dequeue(1);
  EXPECT_DOUBLE_EQ(s.backlog_demand_us(), 0.0);
}

TEST(Fcfs, DequeueEmptyThrows) {
  FcfsScheduler s;
  EXPECT_THROW(s.dequeue(0), std::logic_error);
}

TEST(Random, ServesEveryOpExactlyOnce) {
  RandomScheduler s{99};
  for (OperationId i = 0; i < 100; ++i) s.enqueue(OpBuilder{i}.build(), 0);
  std::set<OperationId> served;
  for (int i = 0; i < 100; ++i) served.insert(s.dequeue(1).op_id);
  EXPECT_EQ(served.size(), 100u);
  EXPECT_TRUE(s.empty());
}

TEST(Random, OrderIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    RandomScheduler s{seed};
    for (OperationId i = 0; i < 50; ++i) s.enqueue(OpBuilder{i}.build(), 0);
    std::vector<OperationId> order;
    while (!s.empty()) order.push_back(s.dequeue(1).op_id);
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Sjf, ServesSmallestDemandFirst) {
  SjfScheduler s;
  s.enqueue(OpBuilder{1}.demand(30).build(), 0);
  s.enqueue(OpBuilder{2}.demand(5).build(), 0);
  s.enqueue(OpBuilder{3}.demand(20).build(), 0);
  EXPECT_EQ(s.dequeue(1).op_id, 2u);
  EXPECT_EQ(s.dequeue(1).op_id, 3u);
  EXPECT_EQ(s.dequeue(1).op_id, 1u);
}

TEST(Sjf, TiesBreakByArrival) {
  SjfScheduler s;
  for (OperationId i = 0; i < 5; ++i)
    s.enqueue(OpBuilder{i}.demand(10).build(), static_cast<double>(i));
  for (OperationId i = 0; i < 5; ++i) EXPECT_EQ(s.dequeue(10).op_id, i);
}

TEST(Edf, ServesEarliestDeadlineFirst) {
  EdfScheduler s;
  s.enqueue(OpBuilder{1}.deadline(300).build(), 0);
  s.enqueue(OpBuilder{2}.deadline(100).build(), 0);
  s.enqueue(OpBuilder{3}.deadline(200).build(), 0);
  EXPECT_EQ(s.dequeue(1).op_id, 2u);
  EXPECT_EQ(s.dequeue(1).op_id, 3u);
  EXPECT_EQ(s.dequeue(1).op_id, 1u);
}

TEST(Factory, CreatesEveryPolicyWithMatchingName) {
  for (const Policy p : all_policies()) {
    const SchedulerPtr s = make_scheduler(p);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->empty());
  }
}

TEST(Factory, PolicyStringRoundTrip) {
  for (const Policy p : all_policies()) EXPECT_EQ(policy_from_string(to_string(p)), p);
}

TEST(Factory, UnknownPolicyNameThrows) {
  try {
    (void)policy_from_string("no-such-policy");
    ADD_FAILURE() << "accepted no-such-policy";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown policy 'no-such-policy'"), std::string::npos) << msg;
    for (const Policy p : all_policies()) {
      EXPECT_NE(msg.find(to_string(p)), std::string::npos) << msg;
    }
    EXPECT_EQ(msg.find("DAS_CHECK"), std::string::npos) << msg;
  }
}

// Property: every policy is conserving — n enqueues yield exactly the same n
// ops back, each exactly once, regardless of order.
class ConservationProperty : public ::testing::TestWithParam<Policy> {};

TEST_P(ConservationProperty, AllOpsServedExactlyOnce) {
  const SchedulerPtr s = make_scheduler(GetParam());
  Rng rng{17};
  std::set<OperationId> in;
  SimTime now = 0;
  for (OperationId i = 0; i < 500; ++i) {
    now += 1.0;
    s->enqueue(OpBuilder{i}
                   .demand(rng.uniform(1, 50))
                   .total(rng.uniform(1, 400))
                   .critical(rng.uniform(1, 100))
                   .other_completion(rng.chance(0.5) ? now + rng.uniform(0, 500) : 0)
                   .deadline(now + rng.uniform(10, 1000))
                   .build(),
               now);
    in.insert(i);
    // Interleave some dequeues.
    if (rng.chance(0.4) && !s->empty()) {
      const OperationId id = s->dequeue(now).op_id;
      ASSERT_TRUE(in.count(id));
      in.erase(id);
    }
  }
  while (!s->empty()) {
    now += 1.0;
    const OperationId id = s->dequeue(now).op_id;
    ASSERT_TRUE(in.count(id));
    in.erase(id);
  }
  EXPECT_TRUE(in.empty());
  EXPECT_DOUBLE_EQ(s->backlog_demand_us(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ConservationProperty,
                         ::testing::ValuesIn(all_policies()),
                         [](const ::testing::TestParamInfo<Policy>& param_info) {
                           std::string name = to_string(param_info.param);
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace das::sched
