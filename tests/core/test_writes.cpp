// Mixed read/write workloads: write-all PUTs alongside multiget reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"

namespace das::core {
namespace {

ClusterConfig rw_config(double write_fraction, std::size_t replication = 1) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.0;
  cfg.ring_vnodes = replication > 1 ? 64 : 0;
  cfg.replication = replication;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.6;
  cfg.write_fraction = write_fraction;
  cfg.seed = 13;
  return cfg;
}

RunWindow window() {
  RunWindow w;
  w.warmup_us = 5.0 * kMillisecond;
  w.measure_us = 60.0 * kMillisecond;
  return w;
}

TEST(Writes, MixedWorkloadConserves) {
  for (const double w : {0.05, 0.3, 1.0}) {
    const ExperimentResult r = run_experiment(rw_config(w), window());
    EXPECT_EQ(r.requests_generated, r.requests_completed) << "w=" << w;
    EXPECT_EQ(r.ops_generated, r.ops_completed) << "w=" << w;
  }
}

TEST(Writes, WriteAllTouchesEveryReplica) {
  auto cfg = rw_config(1.0, 3);
  cfg.write_size_bytes = make_constant(4096.0);
  const std::vector<Bytes> drawn = Cluster{cfg, window()}.key_sizes();
  Cluster cluster{cfg, window()};
  const ExperimentResult r = cluster.run();
  // Every request is one PUT fanned out to 3 replicas.
  EXPECT_EQ(r.ops_generated, 3 * r.requests_generated);
  // Every request completed, so every replica of a rewritten key has applied
  // its copy, and no server outside the replica set has.
  const auto& part = cluster.partitioner();
  std::size_t written = 0;
  for (KeyId key = 0; key < drawn.size(); ++key) {
    if (cluster.key_sizes()[key] == drawn[key]) continue;
    ++written;
    const auto replicas = part.replicas_for(key, 3);
    for (std::size_t s = 0; s < cluster.server_count(); ++s) {
      const bool replica =
          std::find(replicas.begin(), replicas.end(), s) != replicas.end();
      EXPECT_EQ(cluster.server(s).stored_size(key),
                std::optional<Bytes>{replica ? 4096 : drawn[key]})
          << "key " << key << " on server " << s;
    }
  }
  EXPECT_GT(written, 100u);
}

TEST(Writes, UtilisationStaysCalibratedWithWrites) {
  // The calibration accounts for the write fan-out: utilisation should stay
  // near target across write fractions.
  for (const double w : {0.0, 0.5, 1.0}) {
    auto cfg = rw_config(w, 2);
    const ExperimentResult r = run_experiment(cfg, window());
    EXPECT_NEAR(r.mean_server_utilization, 0.6, 0.07) << "w=" << w;
  }
}

TEST(Writes, CatalogueTracksWrittenSizes) {
  auto cfg = rw_config(1.0);
  cfg.write_size_bytes = make_constant(4096.0);
  Cluster cluster{cfg, window()};
  cluster.run();
  // After an all-write run, most touched keys store 4096 bytes.
  std::size_t written = 0, scanned = 0;
  for (KeyId key = 0; key < cluster.key_sizes().size(); ++key) {
    ++scanned;
    if (cluster.key_sizes()[key] == 4096) ++written;
  }
  EXPECT_GT(written, scanned / 20);  // plenty of keys rewritten
}

TEST(Writes, DasStillBeatsFcfsWithWrites) {
  auto cfg = rw_config(0.2);
  cfg.num_servers = 16;
  cfg.target_load = 0.75;
  const auto runs = compare_policies(
      cfg, {sched::Policy::kFcfs, sched::Policy::kDas}, window());
  EXPECT_GT(rct_improvement(runs[0].result, runs[1].result), 0.05);
}

TEST(Writes, DeterministicWithWrites) {
  const ExperimentResult a = run_experiment(rw_config(0.3, 2), window());
  const ExperimentResult b = run_experiment(rw_config(0.3, 2), window());
  EXPECT_DOUBLE_EQ(a.rct.mean, b.rct.mean);
}

}  // namespace
}  // namespace das::core
