// FaultPlan: CLI-spec parser, structural validation, chaos generator.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace das::fault {
namespace {

TEST(FaultPlanParse, CrashRecoverAndPartitionSpec) {
  const FaultPlan plan =
      parse_fault_plan("crash@50ms:s3,recover@80ms:s3,partition@20ms:c0-s1");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(plan.events[0].at, 50.0 * kMillisecond);
  EXPECT_EQ(plan.events[0].server, 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kRecover);
  EXPECT_DOUBLE_EQ(plan.events[1].at, 80.0 * kMillisecond);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kPartition);
  EXPECT_DOUBLE_EQ(plan.events[2].at, 20.0 * kMillisecond);
  EXPECT_EQ(plan.events[2].client, 0u);
  EXPECT_EQ(plan.events[2].server, 1u);
}

TEST(FaultPlanParse, WindowFormsExpandToStartEndPairs) {
  const FaultPlan plan =
      parse_fault_plan("slow@10ms-40ms:s2:x0.25,lossburst@5ms-9ms:p0.3");
  ASSERT_EQ(plan.events.size(), 4u);
  // Each window token expands to its start/end pair in token order (the
  // executor schedules by timestamp, so cross-token order is irrelevant).
  EXPECT_EQ(plan.events[0].kind, FaultKind::kSlowStart);
  EXPECT_EQ(plan.events[0].server, 2u);
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 0.25);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kSlowEnd);
  EXPECT_DOUBLE_EQ(plan.events[1].at, 40.0 * kMillisecond);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLossStart);
  EXPECT_DOUBLE_EQ(plan.events[2].at, 5.0 * kMillisecond);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 0.3);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kLossEnd);
  EXPECT_DOUBLE_EQ(plan.events[3].at, 9.0 * kMillisecond);
}

TEST(FaultPlanParse, TimeUnitsAndWildcardClient) {
  const FaultPlan plan =
      parse_fault_plan("partition@1500us:*-s0,heal@2000:*-s0");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.events[0].at, 1500.0);
  EXPECT_EQ(plan.events[0].client, kAllClients);
  EXPECT_DOUBLE_EQ(plan.events[1].at, 2000.0);  // bare number = us
  EXPECT_EQ(plan.events[1].kind, FaultKind::kHeal);
}

TEST(FaultPlanParse, MalformedTokensThrow) {
  EXPECT_THROW(parse_fault_plan("crash"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@50ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@50ms:c3"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("explode@50ms:s3"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("slow@10ms-40ms:s2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("slow@40ms-10ms:s2:x0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("lossburst@1ms-2ms:p1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("partition@1ms:s1-s2"), std::invalid_argument);
}

// Times, ids and factors are number tokens (common/parse.hpp): an infinite
// slowdown factor once reached the server's DAS_CHECK(elapsed > 0) abort,
// and an infinite time, a hex time or a signed id once ran.
TEST(FaultPlanParse, NumbersFollowTheSharedTokenRule) {
  EXPECT_THROW(parse_fault_plan("slow@1ms-2ms:s1:xinf"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@inf:s0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@0x10:s1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@5ms:s+1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@5ms:s-1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@5ms:s4294967296"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("heal@5ms:c+0-s1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("lossburst@1ms-2ms:pnan"), std::invalid_argument);
  EXPECT_EQ(parse_fault_plan("crash@1e3:s1e1").events.front().server, 10u);
}

TEST(FaultPlanValidate, RejectsOutOfRangeTargets) {
  const FaultPlan plan = parse_fault_plan("crash@50ms:s3,recover@80ms:s3");
  EXPECT_NO_THROW(plan.validate(4, 1));
  EXPECT_THROW(plan.validate(3, 1), std::invalid_argument);
  const FaultPlan link = parse_fault_plan("partition@1ms:c2-s0");
  EXPECT_THROW(link.validate(4, 2), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsBrokenLifecycles) {
  // Double crash without an intervening recover.
  EXPECT_THROW(parse_fault_plan("crash@1ms:s0,crash@2ms:s0").validate(2, 1),
               std::invalid_argument);
  // Recover of a server that never crashed.
  EXPECT_THROW(parse_fault_plan("recover@1ms:s0").validate(2, 1),
               std::invalid_argument);
  // Heal of an intact link.
  EXPECT_THROW(parse_fault_plan("heal@1ms:c0-s0").validate(2, 1),
               std::invalid_argument);
}

TEST(FaultPlanProperties, LosesWorkAndUnrecoveredFailure) {
  EXPECT_FALSE(FaultPlan{}.loses_work());
  EXPECT_FALSE(parse_fault_plan("slow@1ms-2ms:s0:x0.5").loses_work());
  EXPECT_TRUE(parse_fault_plan("crash@1ms:s0,recover@2ms:s0").loses_work());
  EXPECT_TRUE(parse_fault_plan("lossburst@1ms-2ms:p0.5").loses_work());

  EXPECT_FALSE(
      parse_fault_plan("crash@1ms:s0,recover@2ms:s0").has_unrecovered_failure());
  EXPECT_TRUE(parse_fault_plan("crash@1ms:s0").has_unrecovered_failure());
  EXPECT_TRUE(parse_fault_plan("partition@1ms:c0-s0").has_unrecovered_failure());
  EXPECT_FALSE(parse_fault_plan("partition@1ms:c0-s0,heal@2ms:c0-s0")
                   .has_unrecovered_failure());
}

TEST(ChaosPlan, DeterministicAndValid) {
  ChaosOptions options;
  options.horizon_us = 100.0 * kMillisecond;
  options.num_servers = 8;
  options.num_clients = 4;
  options.crashes = 3;
  options.slowdowns = 2;
  options.partitions = 2;
  const FaultPlan a = make_chaos_plan(options, 42);
  const FaultPlan b = make_chaos_plan(options, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].server, b.events[i].server);
    EXPECT_EQ(a.events[i].client, b.events[i].client);
    EXPECT_DOUBLE_EQ(a.events[i].factor, b.events[i].factor);
  }
  EXPECT_NO_THROW(a.validate(options.num_servers, options.num_clients));
  // Every window heals inside the horizon: chaos plans terminate cleanly.
  EXPECT_FALSE(a.has_unrecovered_failure());
  for (const FaultEvent& e : a.events) {
    EXPECT_GE(e.at, 0.0);
    EXPECT_LT(e.at, options.horizon_us);
  }
}

TEST(ChaosPlan, DifferentSeedsDiffer) {
  ChaosOptions options;
  options.horizon_us = 100.0 * kMillisecond;
  options.num_servers = 8;
  options.num_clients = 4;
  options.crashes = 3;
  const FaultPlan a = make_chaos_plan(options, 1);
  const FaultPlan b = make_chaos_plan(options, 2);
  bool any_difference = a.events.size() != b.events.size();
  for (std::size_t i = 0; !any_difference && i < a.events.size(); ++i)
    any_difference = a.events[i].at != b.events[i].at ||
                     a.events[i].server != b.events[i].server;
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace das::fault
