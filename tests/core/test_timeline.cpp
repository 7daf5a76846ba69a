#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace das::core {
namespace {

ClusterConfig timeline_config() {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.6;
  cfg.timeline_bucket_us = 10.0 * kMillisecond;
  cfg.seed = 31;
  return cfg;
}

RunWindow window() {
  RunWindow w;
  w.warmup_us = 0;
  w.measure_us = 100.0 * kMillisecond;
  return w;
}

TEST(Timeline, DisabledByDefault) {
  auto cfg = timeline_config();
  cfg.timeline_bucket_us = 0;
  const ExperimentResult r = run_experiment(cfg, window());
  EXPECT_TRUE(r.timeline.empty());
}

TEST(Timeline, CoversTheRunInOrder) {
  const ExperimentResult r = run_experiment(timeline_config(), window());
  ASSERT_GE(r.timeline.size(), 9u);  // ~10 buckets of 10ms
  for (std::size_t i = 1; i < r.timeline.size(); ++i)
    EXPECT_GT(r.timeline[i].bucket_start, r.timeline[i - 1].bucket_start);
  std::size_t total = 0;
  for (const auto& p : r.timeline) {
    EXPECT_GT(p.count, 0u);
    EXPECT_GT(p.mean_rct, 0.0);
    // The per-bucket p99 comes from the log-bucketed histogram (bucket
    // midpoints), so it tracks the mean from above up to the ~0.5% bucket
    // resolution rather than exactly.
    EXPECT_GT(p.p99_rct, 0.0);
    EXPECT_GE(p.p99_rct, p.mean_rct * 0.99);
    total += p.count;
  }
  // The timeline covers ALL completions, including warmup arrivals.
  EXPECT_EQ(total, r.requests_completed);
}

TEST(Timeline, BucketP99MatchesSingleSample) {
  // A bucket holding one request reports that request's RCT as its p99 up to
  // the histogram's bucket-midpoint resolution.
  Metrics metrics;
  metrics.set_window(0, kTimeInfinity);
  metrics.enable_timeline(1000.0);
  metrics.enable_tenants(1);
  metrics.record_request(10.0, 250.0, 4);
  const auto points = metrics.timeline();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].count, 1u);
  EXPECT_EQ(points[0].mean_rct, 240.0);
  EXPECT_NEAR(points[0].p99_rct, 240.0, 240.0 * 0.02);
}

TEST(Timeline, ReflectsALoadStep) {
  auto cfg = timeline_config();
  // Arrival rate triples for the middle of the run.
  cfg.load_profile = workload::make_step_rate(
      {30.0 * kMillisecond, 70.0 * kMillisecond}, {0.5, 1.5, 0.5});
  const ExperimentResult r = run_experiment(cfg, window());
  double early = 0, middle = 0;
  for (const auto& p : r.timeline) {
    if (p.bucket_start < 30.0 * kMillisecond) early = std::max(early, p.mean_rct);
    if (p.bucket_start >= 40.0 * kMillisecond && p.bucket_start < 70.0 * kMillisecond)
      middle = std::max(middle, p.mean_rct);
  }
  EXPECT_GT(middle, early);
}

}  // namespace
}  // namespace das::core
