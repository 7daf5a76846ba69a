// Overload control: QueueGuard / AdmissionController units, config
// validation, and cluster-level shedding + extended conservation.
#include "overload/overload.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "workload/registry.hpp"

namespace das::overload {
namespace {

OverloadConfig bounded_config(std::size_t cap) {
  OverloadConfig cfg;
  cfg.queue_cap = cap;
  return cfg;
}

TEST(OverloadConfig, DefaultIsFullyOff) {
  const OverloadConfig cfg;
  EXPECT_FALSE(cfg.bounded());
  EXPECT_FALSE(cfg.deadlines());
  EXPECT_FALSE(cfg.enabled());
  cfg.validate();  // defaults must always validate
}

TEST(OverloadConfig, AnyFeatureFlipsEnabled) {
  OverloadConfig cfg;
  cfg.queue_cap = 1;
  EXPECT_TRUE(cfg.enabled());
  cfg = OverloadConfig{};
  cfg.deadline_budget_us = 1000;
  EXPECT_TRUE(cfg.enabled());
  cfg = OverloadConfig{};
  cfg.admission = true;
  EXPECT_TRUE(cfg.enabled());
}

TEST(OverloadConfig, EffectiveSojournResolution) {
  OverloadConfig cfg;
  cfg.sojourn_threshold_us = 500;
  EXPECT_DOUBLE_EQ(cfg.effective_sojourn_us(), 500);
  cfg.sojourn_threshold_us = 0;
  cfg.deadline_budget_us = 2000;
  EXPECT_DOUBLE_EQ(cfg.effective_sojourn_us(), 4000);  // 2x budget
  cfg.deadline_budget_us = 0;
  EXPECT_DOUBLE_EQ(cfg.effective_sojourn_us(), 10.0 * kMillisecond);
}

TEST(OverloadConfig, ValidateNamesTheField) {
  OverloadConfig cfg;
  cfg.sojourn_threshold_us = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("sojourn_threshold_us"),
              std::string::npos);
  }
  cfg = OverloadConfig{};
  cfg.deadline_budget_us = -5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // NaN fails every comparison, so it must not slip past a `< 0` test.
  const auto rejection = [](const OverloadConfig& c) -> std::string {
    try {
      c.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  cfg = OverloadConfig{};
  cfg.deadline_budget_us = std::nan("");
  EXPECT_NE(rejection(cfg).find("deadline_budget_us"), std::string::npos);
  cfg = OverloadConfig{};
  cfg.sojourn_threshold_us = std::nan("");
  EXPECT_NE(rejection(cfg).find("sojourn_threshold_us"), std::string::npos);
}

TEST(OverloadConfig, PolicyTokensRoundTrip) {
  RejectPolicy p = RejectPolicy::kRejectNew;
  EXPECT_TRUE(policy_from_string("sojourn-drop", p));
  EXPECT_EQ(p, RejectPolicy::kSojournDrop);
  EXPECT_STREQ(to_string(p), "sojourn-drop");
  EXPECT_TRUE(policy_from_string("reject-new", p));
  EXPECT_EQ(p, RejectPolicy::kRejectNew);
  EXPECT_STREQ(to_string(p), "reject-new");
  EXPECT_FALSE(policy_from_string("drop-tail", p));
  EXPECT_EQ(p, RejectPolicy::kRejectNew);  // untouched on failure
}

TEST(QueueGuard, RejectsOnlyAtCapWhenBounded) {
  const QueueGuard unbounded{OverloadConfig{}};
  EXPECT_FALSE(unbounded.should_reject(1u << 20));

  const QueueGuard guard{bounded_config(4)};
  EXPECT_FALSE(guard.should_reject(0));
  EXPECT_FALSE(guard.should_reject(3));
  EXPECT_TRUE(guard.should_reject(4));
  EXPECT_TRUE(guard.should_reject(5));
}

TEST(QueueGuard, SojournDropRequiresThePolicy) {
  OverloadConfig cfg = bounded_config(4);
  cfg.sojourn_threshold_us = 100;
  const QueueGuard reject_new{cfg};
  EXPECT_FALSE(reject_new.should_drop_sojourn(1000, 0));

  cfg.reject_policy = RejectPolicy::kSojournDrop;
  const QueueGuard sojourn{cfg};
  EXPECT_FALSE(sojourn.should_drop_sojourn(100, 0));  // == threshold: kept
  EXPECT_TRUE(sojourn.should_drop_sojourn(101, 0));
}

TEST(QueueGuard, ExpiryIsStrictAndGatedOnDeadlines) {
  const QueueGuard no_deadlines{bounded_config(4)};
  EXPECT_FALSE(no_deadlines.is_expired(1000, 1));

  OverloadConfig cfg;
  cfg.deadline_budget_us = 1000;
  const QueueGuard guard{cfg};
  EXPECT_FALSE(guard.is_expired(500, 500));  // at expiry: still served
  EXPECT_TRUE(guard.is_expired(501, 500));
  EXPECT_FALSE(guard.is_expired(501, kTimeInfinity));
}

TEST(QueueGuard, CountersSumToTotalShed) {
  OverloadConfig cfg = bounded_config(2);
  cfg.reject_policy = RejectPolicy::kSojournDrop;
  cfg.deadline_budget_us = 1000;
  QueueGuard guard{cfg};
  guard.note_rejected();
  guard.note_rejected();
  guard.note_sojourn_drop();
  guard.note_expired();
  EXPECT_EQ(guard.rejected_busy(), 2u);
  EXPECT_EQ(guard.dropped_sojourn(), 1u);
  EXPECT_EQ(guard.expired(), 1u);
  EXPECT_EQ(guard.total_shed(), 4u);
  guard.check_invariants();
}

TEST(AdmissionController, StartsWideOpenAndFlipsOneCoinPerAdmit) {
  AdmissionController ctl{2};
  Rng rng{42};
  Rng shadow{42};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctl.admit(i % 2, rng));
  EXPECT_EQ(ctl.admitted(), 100u);
  EXPECT_EQ(ctl.refused(), 0u);
  // Exactly one uniform draw per admit: a shadow stream that made the same
  // number of draws stays aligned.
  for (int i = 0; i < 100; ++i) shadow.chance(0.5);
  EXPECT_EQ(rng.next_u64(), shadow.next_u64());
}

TEST(AdmissionController, AimdWithFloorAndCeiling) {
  // Floor 0.05, step +0.02 per success, factor x0.5 per overload signal.
  AdmissionController ctl{1};
  EXPECT_DOUBLE_EQ(ctl.rate(0), 1.0);
  ctl.on_overload(0);
  EXPECT_DOUBLE_EQ(ctl.rate(0), 0.5);
  ctl.on_overload(0);
  ctl.on_overload(0);
  ctl.on_overload(0);
  EXPECT_DOUBLE_EQ(ctl.rate(0), 0.0625);
  ctl.on_overload(0);  // 0.03125 < floor: clamped
  EXPECT_DOUBLE_EQ(ctl.rate(0), 0.05);
  ctl.check_invariants();
  ctl.on_success(0);
  EXPECT_DOUBLE_EQ(ctl.rate(0), 0.07);
  for (int i = 0; i < 46; ++i) ctl.on_success(0);
  EXPECT_LT(ctl.rate(0), 1.0);  // 0.05 + 47 x 0.02 = 0.99
  EXPECT_NEAR(ctl.rate(0), 0.99, 1e-9);
  ctl.on_success(0);
  EXPECT_DOUBLE_EQ(ctl.rate(0), 1.0);  // additive climb, capped at 1
  ctl.check_invariants();
}

TEST(AdmissionController, TenantsAreIndependent) {
  AdmissionController ctl{3};
  ctl.on_overload(1);
  EXPECT_DOUBLE_EQ(ctl.rate(0), 1.0);
  EXPECT_LT(ctl.rate(1), 1.0);
  EXPECT_DOUBLE_EQ(ctl.rate(2), 1.0);
}

}  // namespace
}  // namespace das::overload

// Cluster-level behaviour lives in das::core where the config helpers are.
namespace das::core {
namespace {

ClusterConfig overload_config(double load, sched::Policy policy) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = load;
  cfg.fanout = make_uniform_int(1, 8);
  cfg.policy = policy;
  cfg.seed = 7;
  return cfg;
}

RunWindow overload_window() {
  RunWindow w;
  w.warmup_us = 5.0 * kMillisecond;
  w.measure_us = 30.0 * kMillisecond;
  return w;
}

void expect_conserved(const ExperimentResult& r) {
  EXPECT_EQ(r.requests_generated, r.requests_completed + r.requests_failed +
                                      r.requests_shed + r.requests_expired);
}

TEST(ClusterOverload, BoundedQueueShedsAtOverloadAndConserves) {
  auto cfg = overload_config(1.3, sched::Policy::kFcfs);
  cfg.overload.queue_cap = 16;
  const ExperimentResult r = run_experiment(cfg, overload_window());
  EXPECT_GT(r.ops_rejected_busy, 0u);
  EXPECT_GT(r.requests_shed, 0u);
  EXPECT_EQ(r.requests_expired, 0u);  // no deadlines configured
  expect_conserved(r);
  EXPECT_LE(r.goodput_rps, r.throughput_rps);
  EXPECT_GT(r.goodput_rps, 0.0);
}

TEST(ClusterOverload, SojournDropActivatesUnderSustainedOverload) {
  auto cfg = overload_config(1.3, sched::Policy::kFcfs);
  cfg.overload.queue_cap = 64;
  cfg.overload.reject_policy = overload::RejectPolicy::kSojournDrop;
  cfg.overload.sojourn_threshold_us = 500;
  const ExperimentResult r = run_experiment(cfg, overload_window());
  EXPECT_GT(r.ops_shed_sojourn, 0u);
  expect_conserved(r);
}

TEST(ClusterOverload, DeadlinesExpireRequestsAndConserve) {
  auto cfg = overload_config(1.3, sched::Policy::kFcfs);
  cfg.overload.deadline_budget_us = 2.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, overload_window());
  EXPECT_GT(r.requests_expired, 0u);
  EXPECT_GT(r.ops_expired_dropped, 0u);
  expect_conserved(r);
}

TEST(ClusterOverload, AdmissionControlShedsClientSide) {
  auto cfg = overload_config(1.3, sched::Policy::kFcfs);
  cfg.overload.queue_cap = 16;
  cfg.overload.deadline_budget_us = 5.0 * kMillisecond;
  cfg.overload.admission = true;
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 60.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, w);
  EXPECT_GT(r.requests_shed_admission, 0u);
  EXPECT_LE(r.requests_shed_admission, r.requests_shed);
  expect_conserved(r);
}

TEST(ClusterOverload, RetriesRecoverBusyRejectionsAtModerateLoad) {
  // With retransmission armed, a BUSY rejection is retried instead of
  // immediately shedding the request — at moderate load most requests
  // still complete.
  auto cfg = overload_config(0.9, sched::Policy::kFcfs);
  cfg.overload.queue_cap = 8;
  cfg.retry_timeout_us = 2.0 * kMillisecond;
  cfg.retry_max_attempts = 4;
  const ExperimentResult r = run_experiment(cfg, overload_window());
  expect_conserved(r);
  EXPECT_GT(r.requests_completed, r.requests_shed);
}

TEST(ClusterOverload, OverloadOffMatchesBaselineBitForBit) {
  const ExperimentResult base =
      run_experiment(overload_config(0.6, sched::Policy::kDas), overload_window());
  auto cfg = overload_config(0.6, sched::Policy::kDas);
  cfg.overload = overload::OverloadConfig{};  // explicit all-off
  const ExperimentResult off = run_experiment(cfg, overload_window());
  EXPECT_EQ(base.requests_generated, off.requests_generated);
  EXPECT_DOUBLE_EQ(base.rct.mean, off.rct.mean);
  EXPECT_DOUBLE_EQ(base.rct.p999, off.rct.p999);
  EXPECT_EQ(base.net_messages, off.net_messages);
  EXPECT_EQ(base.net_bytes, off.net_bytes);  // wire sizes unchanged
  EXPECT_EQ(off.requests_shed, 0u);
  EXPECT_EQ(off.requests_expired, 0u);
  EXPECT_DOUBLE_EQ(off.goodput_rps, off.throughput_rps);
}

TEST(ClusterOverload, ProtectionKeepsGoodputPositivePastSaturation) {
  // The E22 claim in miniature: at load 1.3 the protected run still
  // completes a healthy stream of requests inside the measure window.
  auto cfg = overload_config(1.3, sched::Policy::kDas);
  cfg.overload.queue_cap = 32;
  cfg.overload.deadline_budget_us = 5.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, overload_window());
  EXPECT_GT(r.requests_measured, 0u);
  EXPECT_GT(r.goodput_rps, 0.0);
  EXPECT_LE(r.goodput_rps, r.throughput_rps);
  expect_conserved(r);
}

TEST(ClusterOverload, RetryDeadlineCouplingRejected) {
  auto cfg = overload_config(0.9, sched::Policy::kFcfs);
  cfg.overload.deadline_budget_us = 1.0 * kMillisecond;
  cfg.retry_timeout_us = 1.0 * kMillisecond;  // >= budget: dead weight
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("retry_timeout_us"),
              std::string::npos);
  }
  cfg.retry_timeout_us = 0.2 * kMillisecond;  // < budget: fine
  cfg.retry_max_attempts = 2;
  cfg.validate();
}

TEST(ClusterOverload, PerTenantDegradationAccountingCloses) {
  auto cfg = overload_config(1.3, sched::Policy::kFcfs);
  cfg.overload.queue_cap = 16;
  cfg.overload.deadline_budget_us = 5.0 * kMillisecond;
  cfg.tenants = workload::parse_tenants("ycsb-c+share:3+name:a;ycsb-c+name:b");
  const ExperimentResult r = run_experiment(cfg, overload_window());
  expect_conserved(r);
  ASSERT_EQ(r.tenants.size(), 2u);
  std::uint64_t shed = 0, expired = 0;
  double share_sum = 0;
  for (const TenantOutcome& t : r.tenants) {
    EXPECT_EQ(t.requests_generated, t.requests_completed + t.requests_failed +
                                        t.requests_shed + t.requests_expired);
    shed += t.requests_shed;
    expired += t.requests_expired;
    share_sum += t.goodput_share;
  }
  EXPECT_EQ(shed, r.requests_shed);
  EXPECT_EQ(expired, r.requests_expired);
  if (r.requests_measured > 0) {
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace das::core
