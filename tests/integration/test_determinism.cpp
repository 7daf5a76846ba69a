// Determinism regression: two full simulator runs with the same seed and
// config must produce BIT-IDENTICAL results — every statistic, not just the
// mean. Unordered-container iteration order leaking into scheduling
// decisions, uninitialized reads, or wall-clock contamination all break this
// before they are large enough to move an assertion with a tolerance.
//
// Also exercises the continuous invariant audit end-to-end: full runs with a
// tight audit cadence must complete without an AuditError, so every
// conservation and ordering invariant holds at thousands of intermediate
// points of a realistic workload, not just at the end.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace das::core {
namespace {

ClusterConfig small_config(sched::Policy policy) {
  ClusterConfig cfg;
  cfg.num_servers = 12;
  cfg.num_clients = 3;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = 0.7;
  cfg.policy = policy;
  cfg.seed = 777;
  return cfg;
}

RunWindow short_window() {
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 20.0 * kMillisecond;
  return w;
}

void expect_bit_identical(const LatencySummary& a, const LatencySummary& b,
                          const char* which) {
  EXPECT_EQ(a.count, b.count) << which;
  // EXPECT_DOUBLE_EQ tolerates 4 ulps; determinism means exact bit equality.
  EXPECT_EQ(a.mean, b.mean) << which;
  EXPECT_EQ(a.p50, b.p50) << which;
  EXPECT_EQ(a.p95, b.p95) << which;
  EXPECT_EQ(a.p99, b.p99) << which;
  EXPECT_EQ(a.p999, b.p999) << which;
  EXPECT_EQ(a.max, b.max) << which;
}

void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  expect_bit_identical(a.rct, b.rct, "rct");
  expect_bit_identical(a.op_latency, b.op_latency, "op_latency");
  expect_bit_identical(a.op_wait, b.op_wait, "op_wait");
  EXPECT_EQ(a.requests_generated, b.requests_generated);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.requests_measured, b.requests_measured);
  EXPECT_EQ(a.ops_generated, b.ops_generated);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.mean_server_utilization, b.mean_server_utilization);
  EXPECT_EQ(a.max_server_utilization, b.max_server_utilization);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.progress_messages, b.progress_messages);
  EXPECT_EQ(a.ops_deferred, b.ops_deferred);
  EXPECT_EQ(a.ops_resumed, b.ops_resumed);
  EXPECT_EQ(a.ops_aged, b.ops_aged);
  EXPECT_EQ(a.reranks_applied, b.reranks_applied);
  EXPECT_EQ(a.breakdown.requests, b.breakdown.requests);
  EXPECT_EQ(a.breakdown.mean_rct_us, b.breakdown.mean_rct_us);
  EXPECT_EQ(a.breakdown.mean_network_us, b.breakdown.mean_network_us);
  EXPECT_EQ(a.breakdown.mean_runnable_wait_us, b.breakdown.mean_runnable_wait_us);
  EXPECT_EQ(a.breakdown.mean_deferred_wait_us, b.breakdown.mean_deferred_wait_us);
  EXPECT_EQ(a.breakdown.mean_service_us, b.breakdown.mean_service_us);
  EXPECT_EQ(a.breakdown.mean_straggler_slack_us,
            b.breakdown.mean_straggler_slack_us);
  EXPECT_EQ(a.sim_duration_us, b.sim_duration_us);
}

class DeterminismBitIdentical : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(DeterminismBitIdentical, SameSeedSameBits) {
  const auto cfg = small_config(GetParam());
  const ExperimentResult a = run_experiment(cfg, short_window());
  const ExperimentResult b = run_experiment(cfg, short_window());
  expect_bit_identical(a, b);
}

TEST_P(DeterminismBitIdentical, DifferentSeedsactuallyDiffer) {
  // Guards the guard: if the workload ignored the seed, the bit-identical
  // test above would pass vacuously.
  auto cfg = small_config(GetParam());
  const ExperimentResult a = run_experiment(cfg, short_window());
  cfg.seed = 778;
  const ExperimentResult b = run_experiment(cfg, short_window());
  EXPECT_NE(a.rct.mean, b.rct.mean);
}

INSTANTIATE_TEST_SUITE_P(KeyPolicies, DeterminismBitIdentical,
                         ::testing::Values(sched::Policy::kFcfs,
                                           sched::Policy::kReinSbf,
                                           sched::Policy::kReqSrpt,
                                           sched::Policy::kDas),
                         [](const auto& param_info) {
                           auto name = sched::to_string(param_info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class ContinuousAudit : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(ContinuousAudit, FullRunStaysClean) {
  auto cfg = small_config(GetParam());
  cfg.audit_every_events = 64;
  const ExperimentResult r = run_experiment(cfg, short_window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_GT(r.requests_measured, 0u);
}

TEST(ContinuousAuditModes, PreemptiveServiceStaysClean) {
  auto cfg = small_config(sched::Policy::kReqSrpt);
  cfg.preemptive_service = true;
  cfg.audit_every_events = 64;
  const ExperimentResult r = run_experiment(cfg, short_window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
}

TEST(ContinuousAuditModes, AuditDoesNotChangeResults) {
  // Auditing is observation only: a run with a tight cadence must produce
  // bit-identical numbers to an unaudited run.
  auto cfg = small_config(sched::Policy::kDas);
  const ExperimentResult plain = run_experiment(cfg, short_window());
  cfg.audit_every_events = 32;
  const ExperimentResult audited = run_experiment(cfg, short_window());
  expect_bit_identical(plain, audited);
}

INSTANTIATE_TEST_SUITE_P(KeyPolicies, ContinuousAudit,
                         ::testing::Values(sched::Policy::kFcfs,
                                           sched::Policy::kSjf,
                                           sched::Policy::kReinSbf,
                                           sched::Policy::kReqSrpt,
                                           sched::Policy::kDas,
                                           sched::Policy::kDasCritical),
                         [](const auto& param_info) {
                           auto name = sched::to_string(param_info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace das::core
