// Social-feed scenario: the workload that motivates multiget scheduling.
//
// Rendering one feed page fans out into tens of key lookups (posts, authors,
// counters) across the cluster; the page renders when the LAST lookup
// returns. Fan-outs are heavy-tailed (most pages touch a few keys, some
// touch a hundred), popularity is Zipf-skewed, and the cluster runs hot at
// peak hours. This example sweeps the evening peak and shows how each
// scheduler holds up.
//
//   ./build/examples/social_feed
#include <iostream>

#include "das.hpp"

int main() {
  using namespace das;

  core::ClusterConfig cfg;
  cfg.num_servers = 64;
  cfg.num_clients = 16;
  cfg.keys_per_server = 1000;
  // Feed pages: 80% light (2 keys), 20% heavy (48 keys) — bimodal fan-out.
  cfg.fanout = make_bimodal(2, 48, 0.2);
  // Hot celebrities: Zipf(0.9) popularity; keep the hottest shard at the
  // target, not the average, so the peak stays stable.
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  // Small metadata values: memcached-ETC-like sizes.
  cfg.value_size_bytes = make_generalized_pareto(1.0, 250.0, 0.35, 64 * 1024.0);

  core::RunWindow window;
  window.warmup_us = 30 * kMillisecond;
  window.measure_us = 150 * kMillisecond;

  Table table{{"peak load", "policy", "mean RCT (us)", "p99 (us)",
               "heavy-page penalty"}};
  for (const double load : {0.5, 0.7, 0.85}) {
    cfg.target_load = load;
    const auto runs = core::compare_policies(
        cfg, {sched::Policy::kFcfs, sched::Policy::kReinSbf, sched::Policy::kDas},
        window);
    for (const auto& [policy, r] : runs) {
      // "Heavy-page penalty": p99 over median — how much the wide pages and
      // queueing tail cost relative to a typical page.
      table.add_row({Table::fmt(load, 2), sched::to_string(policy),
                     Table::fmt(r.rct.mean, 1), Table::fmt(r.rct.p99, 1),
                     Table::fmt(r.rct.p99 / r.rct.p50, 1) + "x"});
    }
  }
  std::cout << "Feed-page completion time during the evening peak\n\n";
  table.print(std::cout);
  std::cout << "\nDAS keeps light pages fast without starving heavy ones\n"
               "(aging bounds the worst case; see dassim --experiment=E11_ablation).\n";
  return 0;
}
