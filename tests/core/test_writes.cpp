// Mixed read/write workloads: write-all PUTs alongside multiget reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"

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

/// Runs `cluster` with the op recorder attached; returns its result and
/// fills `last` with the size of the last write each key received (unset
/// for keys nobody wrote).
ExperimentResult run_recording_writes(Cluster& cluster,
                                      std::vector<std::optional<Bytes>>& last) {
  workload::ReplayTrace recorded;
  cluster.set_workload_recorder(&recorded);
  const ExperimentResult r = cluster.run();
  // The recorder sees every client's writes in issue order.
  last.assign(cluster.key_sizes().size(), std::nullopt);
  for (const workload::ReplayRecord& rec : recorded.records) {
    if (rec.op == workload::ReplayOp::kWrite) last[rec.key] = rec.size_bytes;
  }
  return r;
}

TEST(Writes, WriteAllTouchesEveryReplica) {
  Cluster cluster{rw_config(1.0, 3), window()};
  const std::vector<Bytes> drawn = cluster.key_sizes();
  std::vector<std::optional<Bytes>> last;
  const ExperimentResult r = run_recording_writes(cluster, last);
  // Every request is one PUT fanned out to 3 replicas.
  EXPECT_EQ(r.ops_generated, 3 * r.requests_generated);
  // Every request completed, so every replica of a rewritten key has applied
  // its last write, and no server outside the replica set has.
  const auto& part = cluster.partitioner();
  std::size_t written = 0;
  for (KeyId key = 0; key < drawn.size(); ++key) {
    if (!last[key]) continue;
    ++written;
    const auto replicas = part.replicas_for(key, 3);
    for (std::size_t s = 0; s < cluster.server_count(); ++s) {
      const bool replica =
          std::find(replicas.begin(), replicas.end(), s) != replicas.end();
      EXPECT_EQ(cluster.server(s).written_size(key).value_or(drawn[key]),
                replica ? *last[key] : drawn[key])
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

TEST(Writes, HottestCalibrationCountsWriteFanout) {
  // A PUT costs every replica a write, so the hottest server's utilisation
  // must stay at the target with writes in the mix, not fall short of it as
  // if every request were a read.
  auto cfg = rw_config(0.3, 3);
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = 0.8;
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 200.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, w);
  EXPECT_NEAR(r.max_server_utilization, 0.8, 0.05);
}

TEST(Writes, CatalogueTracksWrittenSizes) {
  Cluster cluster{rw_config(1.0), window()};
  std::vector<std::optional<Bytes>> last;
  run_recording_writes(cluster, last);
  // After an all-write run, plenty of keys were rewritten, and clients see
  // each at the size last written to it.
  std::size_t written = 0, scanned = 0;
  for (KeyId key = 0; key < last.size(); ++key) {
    ++scanned;
    if (last[key] && cluster.client_size(key) == *last[key]) ++written;
  }
  EXPECT_GT(written, scanned / 20);  // plenty of keys rewritten
}

TEST(Writes, KeySizesStayTheConstructionTimeDraws) {
  Cluster cluster{rw_config(1.0), window()};
  const std::vector<Bytes> drawn = cluster.key_sizes();
  std::vector<std::optional<Bytes>> last;
  run_recording_writes(cluster, last);
  std::size_t resized = 0;
  for (KeyId key = 0; key < drawn.size(); ++key) {
    resized += last[key] && *last[key] != drawn[key] ? 1 : 0;
  }
  ASSERT_GT(resized, 0u);  // writes did change sizes...
  EXPECT_EQ(cluster.key_sizes(), drawn);  // ...but never the catalogue
}

TEST(Writes, ClientSizeIsTheLastIssuedWrite) {
  Cluster cluster{rw_config(0.5, 2), window()};
  std::vector<std::optional<Bytes>> last;
  run_recording_writes(cluster, last);
  const std::vector<Bytes> drawn = cluster.key_sizes();
  std::size_t written = 0;
  for (KeyId key = 0; key < last.size(); ++key) {
    written += last[key].has_value() ? 1 : 0;
    EXPECT_EQ(cluster.client_size(key), last[key].value_or(drawn[key]))
        << "key " << key;
  }
  EXPECT_GT(written, 100u);
}

// A replayed read's recorded size is what the traced store served, so it
// sets the client's demand estimate; the servers keep serving their own
// catalogue and completed writes.
TEST(Writes, ReplayedReadSizeMovesClientDemandNotServers) {
  constexpr KeyId kKey = 7;
  constexpr Bytes kRecorded = 9999;
  workload::ReplayTrace trace;
  trace.records.push_back(
      {10.0 * kMillisecond, workload::ReplayOp::kRead, kKey, kRecorded});
  const std::string path = ::testing::TempDir() + "writes_replayed_read.csv";
  trace.save(path);

  auto cfg = rw_config(0.0);
  cfg.tenants = workload::parse_tenants("replay:" + path);
  Cluster cluster{cfg, window()};
  const Bytes drawn = cluster.key_sizes()[kKey];
  ASSERT_NE(drawn, kRecorded);
  std::vector<Bytes> before;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    before.push_back(cluster.server(s).written_size(kKey).value_or(drawn));
  }
  const ExperimentResult r = cluster.run();
  ASSERT_EQ(r.ops_completed, 1u);
  EXPECT_EQ(cluster.client_size(kKey), kRecorded);
  // Synthetic service costs the client-tagged demand, so the one op's busy
  // time is the demand the client derived from the recorded size.
  double busy = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    busy += cluster.server(s).busy_time_in_window();
    EXPECT_EQ(cluster.server(s).written_size(kKey).value_or(drawn), before[s])
        << "server " << s;
  }
  // Busy time is a difference of simulated instants, so allow rounding.
  EXPECT_NEAR(busy,
              cfg.per_op_overhead_us +
                  static_cast<double>(kRecorded) / cfg.service_bytes_per_us,
              1e-9 * kMillisecond);
}

TEST(Writes, DasStillBeatsFcfsWithWrites) {
  auto cfg = rw_config(0.2);
  cfg.num_servers = 16;
  cfg.target_load = 0.75;
  const auto runs = compare_policies(
      cfg, {sched::Policy::kFcfs, sched::Policy::kDas}, window());
  EXPECT_GT(gain_over_fcfs(runs[0].result.rct.mean, runs[1].result.rct.mean),
            0.05);
}

TEST(Writes, DeterministicWithWrites) {
  const ExperimentResult a = run_experiment(rw_config(0.3, 2), window());
  const ExperimentResult b = run_experiment(rw_config(0.3, 2), window());
  EXPECT_DOUBLE_EQ(a.rct.mean, b.rct.mean);
}

}  // namespace
}  // namespace das::core
