// Quickstart: simulate a 32-server key-value store under multiget load and
// compare the default FCFS scheduling with DAS.
//
//   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "das.hpp"

int main() {
  using namespace das;

  // A cluster is described by one config struct. Everything has sensible
  // defaults; here we pin the parts that matter for the comparison.
  core::ClusterConfig cfg;
  cfg.num_servers = 32;
  cfg.num_clients = 8;
  cfg.fanout = make_geometric(0.125, 128);  // multigets, mean 8 keys
  cfg.zipf_theta = 0.0;                     // uniform key popularity
  cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.7;                    // 70% of aggregate capacity

  core::RunWindow window;
  window.warmup_us = 30 * kMillisecond;
  window.measure_us = 200 * kMillisecond;

  std::printf("simulating %zu servers at load %.0f%%...\n\n", cfg.num_servers,
              cfg.target_load * 100);
  std::printf("%-10s %12s %12s %12s\n", "policy", "mean RCT", "p50", "p99");

  // compare_policies replays the identical request stream under each policy.
  const auto runs = core::compare_policies(
      cfg, {sched::Policy::kFcfs, sched::Policy::kReinSbf, sched::Policy::kDas},
      window);
  for (const auto& [policy, result] : runs) {
    std::printf("%-10s %10.1fus %10.1fus %10.1fus\n",
                sched::to_string(policy).c_str(), result.rct.mean, result.rct.p50,
                result.rct.p99);
  }

  const double gain =
      core::gain_over_fcfs(runs.front().result.rct.mean, runs.back().result.rct.mean);
  std::printf("\nDAS cuts mean request completion time by %.1f%% vs FCFS\n",
              gain * 100);
  return 0;
}
