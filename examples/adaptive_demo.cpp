// Time-varying performance demo: the "A" in DAS.
//
// Every server's speed follows an independent two-state Markov process
// (full speed / 40% speed, ~10ms dwell) — modelling background compaction,
// GC pauses and noisy neighbours. A static scheduler keeps ranking
// operations by sizes that no longer reflect reality; DAS's EWMA estimators
// re-learn each server's effective speed within a few requests.
//
// Every scheduler sees the same seeded request stream, so differences are
// scheduling-only.
//
//   ./build/examples/adaptive_demo
#include <iostream>
#include <vector>

#include "das.hpp"

int main() {
  using namespace das;

  core::RunWindow window;
  window.warmup_us = 30 * kMillisecond;
  window.measure_us = 200 * kMillisecond;

  core::ClusterConfig cfg;
  cfg.num_servers = 32;
  cfg.num_clients = 8;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = 0.75;
  // Independent per-server speed fluctuation.
  for (std::size_t s = 0; s < cfg.num_servers; ++s) {
    cfg.speed_profiles.push_back(workload::make_markov_two_state(
        1.0, 0.4, 10 * kMillisecond, 10 * kMillisecond, window.horizon(),
        0xFADE + s));
  }

  std::cout << "servers fluctuate between 1.0x and 0.4x speed (10ms dwell)\n\n";
  Table table{{"policy", "mean RCT (us)", "p99 (us)", "vs fcfs"}};
  const auto runs = core::compare_policies(
      cfg,
      {sched::Policy::kFcfs, sched::Policy::kReinSbf, sched::Policy::kDasNoAdapt,
       sched::Policy::kDas},
      window);
  const double fcfs_mean = runs[0].result.rct.mean;
  for (const auto& [policy, r] : runs) {
    table.add_row({sched::to_string(policy), Table::fmt(r.rct.mean, 1),
                   Table::fmt(r.rct.p99, 1),
                   Table::fmt_percent(1.0 - r.rct.mean / fcfs_mean)});
  }
  table.print(std::cout);
  std::cout << "\ndas-na is DAS with its estimators frozen — the gap between\n"
               "das-na and das is what adapting to time-varying performance "
               "buys.\n";

  // Transient view: every server drops to 0.7x speed at t=100ms and
  // recovers at t=200ms (the slow phase stays inside the stable region, so
  // this isolates ADAPTATION rather than overload drain). Mean RCT per 10ms
  // bucket of request arrival, read off the per-request breakdown rows,
  // shows das settling to a much lower plateau during the slow phase than
  // its frozen-estimator ablation.
  {
    core::ClusterConfig step_cfg;
    step_cfg.num_servers = 32;
    step_cfg.num_clients = 8;
    step_cfg.zipf_theta = 0.0;
    step_cfg.load_calibration = core::LoadCalibration::kHottestServer;
    step_cfg.target_load = 0.6;
    step_cfg.breakdown_retain_requests = 1'000'000;
    step_cfg.speed_profiles = {workload::make_step_rate(
        {100.0 * kMillisecond, 200.0 * kMillisecond}, {1.0, 0.7, 1.0})};
    core::RunWindow step_window;
    step_window.warmup_us = 0;
    step_window.measure_us = 300 * kMillisecond;
    const Duration bucket_us = 10 * kMillisecond;
    const auto bucket_means = [&](sched::Policy policy) {
      step_cfg.policy = policy;
      core::Cluster cluster{step_cfg, step_window};
      cluster.run();
      std::vector<StreamingStats> buckets(30);
      for (const trace::RequestBreakdown& row : cluster.breakdown().rows()) {
        const auto b = static_cast<std::size_t>(row.arrival / bucket_us);
        if (b < buckets.size()) buckets[b].add(row.rct_us);
      }
      return buckets;
    };

    std::cout << "\nmean RCT per 10ms bucket (speed drops to 0.7x in "
                 "[100ms, 200ms)):\n\n";
    const auto das_run = bucket_means(sched::Policy::kDas);
    const auto na_run = bucket_means(sched::Policy::kDasNoAdapt);
    Table timeline{{"t (ms)", "das mean RCT", "das-na mean RCT"}};
    for (std::size_t i = 0; i < das_run.size(); ++i) {
      const double start_ms = static_cast<double>(i) * bucket_us / kMillisecond;
      timeline.add_row({Table::fmt(start_ms, 0), Table::fmt(das_run[i].mean(), 1),
                        Table::fmt(na_run[i].mean(), 1)});
    }
    timeline.print(std::cout);
  }

  return 0;
}
