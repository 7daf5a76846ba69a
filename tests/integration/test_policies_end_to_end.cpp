// End-to-end properties that must hold for EVERY policy, plus the paper's
// headline comparative claims on a fixed seed (deterministic, not flaky).
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace das::core {
namespace {

ClusterConfig base_config() {
  ClusterConfig cfg;
  cfg.num_servers = 16;
  cfg.num_clients = 4;
  cfg.keys_per_server = 300;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.75;
  cfg.fanout = make_geometric(0.125, 128);
  cfg.seed = 2026;
  return cfg;
}

/// Mean-RCT gain of `candidate` over the FCFS run `fcfs`.
double mean_gain(const PolicyRun& fcfs, const PolicyRun& candidate) {
  return gain_over_fcfs(fcfs.result.rct.mean, candidate.result.rct.mean);
}

RunWindow window() {
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 80.0 * kMillisecond;
  return w;
}

class PolicyEndToEnd : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(PolicyEndToEnd, ConservationAndSanity) {
  auto cfg = base_config();
  cfg.policy = GetParam();
  const ExperimentResult r = run_experiment(cfg, window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_EQ(r.ops_generated, r.ops_completed);
  EXPECT_GT(r.requests_measured, 1000u);
  EXPECT_GT(r.rct.mean, 0.0);
  EXPECT_LE(r.rct.p50, r.rct.p99);
  // Mean utilisation should be near the calibrated target regardless of
  // scheduling order (work conservation).
  EXPECT_NEAR(r.mean_server_utilization, 0.75, 0.06);
}

TEST_P(PolicyEndToEnd, DeterministicAcrossRuns) {
  auto cfg = base_config();
  cfg.policy = GetParam();
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 15.0 * kMillisecond;
  const ExperimentResult a = run_experiment(cfg, w);
  const ExperimentResult b = run_experiment(cfg, w);
  EXPECT_DOUBLE_EQ(a.rct.mean, b.rct.mean);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.progress_messages, b.progress_messages);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyEndToEnd,
                         ::testing::ValuesIn(sched::all_policies()),
                         [](const ::testing::TestParamInfo<sched::Policy>& param_info) {
                           std::string name = sched::to_string(param_info.param);
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(PaperClaims, DasBeatsFcfsByAtLeast15Percent) {
  const auto runs = compare_policies(base_config(),
                                     {sched::Policy::kFcfs, sched::Policy::kDas},
                                     window());
  const double gain = mean_gain(runs[0], runs[1]);
  EXPECT_GE(gain, 0.15) << "DAS mean-RCT gain over FCFS below the paper's band";
}

TEST(PaperClaims, DasBeatsReinSbf) {
  const auto runs = compare_policies(base_config(),
                                     {sched::Policy::kReinSbf, sched::Policy::kDas},
                                     window());
  EXPECT_GT(mean_gain(runs[0], runs[1]), 0.0);
}

TEST(PaperClaims, AdaptivityContributes) {
  const auto runs = compare_policies(
      base_config(), {sched::Policy::kDasNoAdapt, sched::Policy::kDas}, window());
  EXPECT_GT(mean_gain(runs[0], runs[1]), 0.0);
}

TEST(PaperClaims, RandomIsNoBetterThanFcfs) {
  const auto runs = compare_policies(base_config(),
                                     {sched::Policy::kFcfs, sched::Policy::kRandom},
                                     window());
  EXPECT_LT(mean_gain(runs[0], runs[1]), 0.05);
}

TEST(Starvation, AgingBoundsWorstCaseWait) {
  auto cfg = base_config();
  cfg.policy = sched::Policy::kDas;
  cfg.sched_config.max_wait_us = 20.0 * kMillisecond;
  cfg.target_load = 0.85;
  const ExperimentResult r = run_experiment(cfg, window());
  // No operation may wait much longer than the aging bound (plus the service
  // time of whatever was ahead when it was promoted).
  EXPECT_LT(r.op_wait.max, 25.0 * kMillisecond);
}

TEST(Starvation, WithoutAgingWideRequestsCanWaitLonger) {
  auto cfg = base_config();
  cfg.target_load = 0.85;
  cfg.sched_config.max_wait_us = 10.0 * kMillisecond;
  cfg.policy = sched::Policy::kDas;
  const ExperimentResult with_aging = run_experiment(cfg, window());
  cfg.policy = sched::Policy::kDasNoAging;
  const ExperimentResult without = run_experiment(cfg, window());
  EXPECT_GT(without.op_wait.max, with_aging.op_wait.max);
}

TEST(Heterogeneity, AdaptiveDasHandlesStragglers) {
  auto cfg = base_config();
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.server_speed_factors.assign(16, 1.0);
  for (int i = 0; i < 4; ++i) cfg.server_speed_factors[i] = 0.5;
  const auto runs = compare_policies(
      cfg, {sched::Policy::kFcfs, sched::Policy::kDasNoAdapt, sched::Policy::kDas},
      window());
  const double das_gain = mean_gain(runs[0], runs[2]);
  const double na_gain = mean_gain(runs[0], runs[1]);
  EXPECT_GT(das_gain, 0.10);
  EXPECT_GT(das_gain, na_gain);  // adaptivity is what handles stragglers
}

}  // namespace
}  // namespace das::core
