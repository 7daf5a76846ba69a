#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/cluster.hpp"
#include "core/experiment.hpp"

namespace das::core {
namespace {

ClusterConfig replicated_config(std::size_t r, ReplicaSelection sel) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.ring_vnodes = 64;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.4;
  cfg.replication = r;
  cfg.replica_selection = sel;
  cfg.seed = 11;
  return cfg;
}

RunWindow window() {
  RunWindow w;
  w.warmup_us = 5.0 * kMillisecond;
  w.measure_us = 40.0 * kMillisecond;
  return w;
}

TEST(Replication, EveryReplicaHoldsTheKey) {
  Cluster cluster{replicated_config(3, ReplicaSelection::kRandom), window()};
  const auto& part = cluster.partitioner();
  const std::vector<Bytes> key_sizes = cluster.key_sizes();
  for (KeyId key = 0; key < 200; ++key) {
    for (const ServerId s : part.replicas_for(key, 3)) {
      EXPECT_EQ(cluster.server(s).written_size(key).value_or(key_sizes[key]),
                key_sizes[key])
          << "key " << key << " on replica " << s;
    }
  }
  // The client checks every replica pick against the key's replica set, so
  // a run that spreads reads over all three replicas completes only if no
  // read left the set.
  const ExperimentResult r = cluster.run();
  EXPECT_EQ(r.requests_generated, r.requests_completed);
}

TEST(Replication, PrimarySelectionEqualsUnreplicatedSchedule) {
  const ExperimentResult r1 =
      run_experiment(replicated_config(1, ReplicaSelection::kPrimary), window());
  const ExperimentResult r3 =
      run_experiment(replicated_config(3, ReplicaSelection::kPrimary), window());
  // Reads always hit the primary, so the schedules are identical.
  EXPECT_DOUBLE_EQ(r1.rct.mean, r3.rct.mean);
  EXPECT_EQ(r1.net_messages, r3.net_messages);
}

class SelectionConservation : public ::testing::TestWithParam<ReplicaSelection> {};

TEST_P(SelectionConservation, AllRequestsCompleteAndHit) {
  Cluster cluster{replicated_config(2, GetParam()), window()};
  const ExperimentResult r = cluster.run();
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_EQ(r.ops_generated, r.ops_completed);
  // Each read was served exactly once, on one of its key's replicas: the
  // client checks every selector pick against the replica set and aborts the
  // run otherwise.
  std::uint64_t served = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    served += cluster.server(s).ops_completed();
  }
  EXPECT_EQ(served, r.ops_completed);
}

INSTANTIATE_TEST_SUITE_P(AllSelections, SelectionConservation,
                         ::testing::Values(ReplicaSelection::kPrimary,
                                           ReplicaSelection::kRandom,
                                           ReplicaSelection::kLeastDelay,
                                           ReplicaSelection::kTars,
                                           ReplicaSelection::kPowerOfD,
                                           ReplicaSelection::kC3),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ReplicaSelection::kPrimary: return "primary";
                             case ReplicaSelection::kRandom: return "random";
                             case ReplicaSelection::kLeastDelay: return "least_delay";
                             case ReplicaSelection::kTars: return "tars";
                             case ReplicaSelection::kPowerOfD: return "power_of_d";
                             case ReplicaSelection::kC3: return "c3";
                           }
                           return "unknown";
                         });

TEST(Replication, SpreadingSelectionReducesHotServerLoad) {
  // Skew strong enough that the hottest KEY dominates its server (~30% of
  // all accesses); spreading it over 2 replicas must halve that server's
  // utilisation, far beyond run-to-run noise.
  auto cfg = replicated_config(2, ReplicaSelection::kPrimary);
  cfg.zipf_theta = 1.4;
  cfg.target_load = 0.3;
  // Fan-out 1: the distinct-keys-per-multiget rule otherwise caps the hot
  // key at one op per request and dilutes the skew below ring-imbalance
  // noise.
  cfg.fanout = make_fixed_int(1);
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 100.0 * kMillisecond;
  const ExperimentResult primary = run_experiment(cfg, w);
  cfg.replica_selection = ReplicaSelection::kRandom;
  const ExperimentResult random = run_experiment(cfg, w);
  // The secondary replica inherits half the hot key, so the peak falls by
  // (hot-key share)/2 minus that replica's own base load — a solid but not
  // halved reduction.
  EXPECT_LT(random.max_server_utilization, primary.max_server_utilization * 0.95);
}

TEST(Replication, LeastDelayAvoidsStragglerReplicas) {
  auto cfg = replicated_config(2, ReplicaSelection::kLeastDelay);
  cfg.zipf_theta = 0.0;
  cfg.policy = sched::Policy::kDas;  // adaptive view feeds selection
  cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
  cfg.server_speed_factors[0] = 0.25;  // one very slow server
  Cluster cluster{cfg, window()};
  cluster.run();
  // The slow server should have served measurably fewer ops than the mean of
  // the fast ones: clients learned to read the other replica.
  const double slow_ops = static_cast<double>(cluster.server(0).ops_completed());
  double fast_ops = 0;
  for (std::size_t s = 1; s < cluster.server_count(); ++s)
    fast_ops += static_cast<double>(cluster.server(s).ops_completed());
  fast_ops /= static_cast<double>(cluster.server_count() - 1);
  EXPECT_LT(slow_ops, fast_ops * 0.8);
}

TEST(Replication, TarsAvoidsStragglerReplicas) {
  // Same straggler setup as above: tars must also learn to leave the slow
  // replica, despite its switching being rate-bounded.
  auto cfg = replicated_config(2, ReplicaSelection::kTars);
  cfg.zipf_theta = 0.0;
  cfg.policy = sched::Policy::kDas;  // adaptive view feeds selection
  cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
  cfg.server_speed_factors[0] = 0.25;
  Cluster cluster{cfg, window()};
  cluster.run();
  const double slow_ops = static_cast<double>(cluster.server(0).ops_completed());
  double fast_ops = 0;
  for (std::size_t s = 1; s < cluster.server_count(); ++s)
    fast_ops += static_cast<double>(cluster.server(s).ops_completed());
  fast_ops /= static_cast<double>(cluster.server_count() - 1);
  EXPECT_LT(slow_ops, fast_ops * 0.8);
}

TEST(Replication, PowerOfDAvoidsStragglerReplicas) {
  // With replication 2 the d=2 sample covers the whole replica set, so
  // power-of-d must steer off the straggler exactly like least-delay does.
  auto cfg = replicated_config(2, ReplicaSelection::kPowerOfD);
  cfg.zipf_theta = 0.0;
  cfg.policy = sched::Policy::kDas;
  cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
  cfg.server_speed_factors[0] = 0.25;
  Cluster cluster{cfg, window()};
  cluster.run();
  const double slow_ops = static_cast<double>(cluster.server(0).ops_completed());
  double fast_ops = 0;
  for (std::size_t s = 1; s < cluster.server_count(); ++s)
    fast_ops += static_cast<double>(cluster.server(s).ops_completed());
  fast_ops /= static_cast<double>(cluster.server_count() - 1);
  EXPECT_LT(slow_ops, fast_ops * 0.8);
}

TEST(Replication, CountClampedToClusterSize) {
  auto cfg = replicated_config(100, ReplicaSelection::kRandom);
  const ExperimentResult r = run_experiment(cfg, window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
}

}  // namespace
}  // namespace das::core
