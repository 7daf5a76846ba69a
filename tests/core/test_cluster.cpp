#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"

namespace das::core {
namespace {

ClusterConfig small_config(sched::Policy policy = sched::Policy::kFcfs) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.6;
  cfg.fanout = make_uniform_int(1, 8);
  cfg.policy = policy;
  cfg.seed = 7;
  return cfg;
}

RunWindow small_window() {
  RunWindow w;
  w.warmup_us = 5.0 * kMillisecond;
  w.measure_us = 30.0 * kMillisecond;
  return w;
}

TEST(Cluster, ConservesRequestsAndOps) {
  Cluster cluster{small_config(), small_window()};
  const ExperimentResult r = cluster.run();
  EXPECT_GT(r.requests_generated, 0u);
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_EQ(r.ops_generated, r.ops_completed);
  EXPECT_GT(r.requests_measured, 0u);
  EXPECT_LE(r.requests_measured, r.requests_completed);
}

// Every delivered message is counted once, by kind, and every progress
// delivery a DAS server handles lands in at most one outcome bucket.
TEST(Cluster, DeliveriesAreCountedByKind) {
  for (const sched::Policy policy : {sched::Policy::kFcfs, sched::Policy::kDas}) {
    SCOPED_TRACE(sched::to_string(policy));
    Cluster cluster{small_config(policy), small_window()};
    const ExperimentResult r = cluster.run();
    const Cluster::DeliveryCounts& d = cluster.deliveries();
    EXPECT_EQ(d.ops, r.ops_generated);
    EXPECT_EQ(d.responses, r.ops_completed);
    EXPECT_EQ(d.progress, r.progress_messages);
    EXPECT_EQ(d.total(), r.net_messages);
    EXPECT_LT(d.total(), cluster.simulator().events_dispatched());
    std::uint64_t rekeyed = 0;
    std::uint64_t unqueued = 0;
    for (std::size_t s = 0; s < cluster.server_count(); ++s) {
      const sched::MechanismCounters c =
          cluster.server(s).scheduler().mechanism_counters();
      rekeyed += c.progress_rekeyed;
      unqueued += c.progress_unqueued;
    }
    EXPECT_LE(rekeyed + unqueued, d.progress);
    if (policy == sched::Policy::kDas) {
      EXPECT_GT(rekeyed, 0u);
      EXPECT_GT(unqueued, 0u);
    } else {
      EXPECT_EQ(d.progress, 0u);
      EXPECT_EQ(rekeyed + unqueued, 0u);
    }
  }
}

// The size catalogue holds 32-bit sizes: a draw of 2^32 B or more is a
// configuration error naming its source, never a silent wrap.
TEST(Cluster, CatalogueDrawsMustStayBelowFourGiB) {
  const auto construction_error = [](const ClusterConfig& cfg) -> std::string {
    try {
      Cluster cluster{cfg, small_window()};
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  ClusterConfig cfg = small_config();
  cfg.value_size_bytes = make_constant(4294967295.0);  // 2^32 - 1 fits
  EXPECT_EQ(construction_error(cfg), "");
  EXPECT_EQ(Cluster(cfg, small_window()).key_sizes().front(), 4294967295u);
  cfg.value_size_bytes = make_constant(4294967296.0);
  EXPECT_NE(construction_error(cfg).find("value_size_bytes (--value-size)"),
            std::string::npos);
  cfg.value_size_bytes = make_constant(5e9);
  EXPECT_NE(construction_error(cfg).find("--value-size"), std::string::npos);

  cfg = small_config();
  cfg.tenants = workload::parse_tenants("ycsb-c+name:a;ycsb-c+name:hog+size:constant:5e9");
  EXPECT_NE(construction_error(cfg).find("tenants[1] ('hog') size:"),
            std::string::npos);
}

TEST(Cluster, RunIsSingleShot) {
  Cluster cluster{small_config(), small_window()};
  cluster.run();
  EXPECT_THROW(cluster.run(), std::logic_error);
}

TEST(Cluster, UtilizationNearTargetWithAverageCalibration) {
  auto cfg = small_config();
  cfg.target_load = 0.6;
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 100.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, w);
  EXPECT_NEAR(r.mean_server_utilization, 0.6, 0.05);
}

TEST(Cluster, HottestCalibrationKeepsEveryServerBelowTarget) {
  auto cfg = small_config();
  cfg.zipf_theta = 1.1;  // strong skew
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = 0.7;
  RunWindow w;
  w.warmup_us = 10.0 * kMillisecond;
  w.measure_us = 100.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, w);
  EXPECT_LT(r.max_server_utilization, 0.85);  // target 0.7 + stochastic slack
  EXPECT_LT(r.mean_server_utilization, r.max_server_utilization);
}

TEST(Cluster, SameSeedSamePolicyIsBitIdentical) {
  const ExperimentResult a = run_experiment(small_config(), small_window());
  const ExperimentResult b = run_experiment(small_config(), small_window());
  EXPECT_EQ(a.requests_generated, b.requests_generated);
  EXPECT_DOUBLE_EQ(a.rct.mean, b.rct.mean);
  EXPECT_DOUBLE_EQ(a.rct.p999, b.rct.p999);
  EXPECT_EQ(a.net_messages, b.net_messages);
}

TEST(Cluster, SameSeedDifferentPolicySameWorkload) {
  const ExperimentResult fcfs = run_experiment(small_config(sched::Policy::kFcfs),
                                               small_window());
  const ExperimentResult das =
      run_experiment(small_config(sched::Policy::kDas), small_window());
  // The generated request stream is identical; only service order differs.
  EXPECT_EQ(fcfs.requests_generated, das.requests_generated);
  EXPECT_EQ(fcfs.ops_generated, das.ops_generated);
}

TEST(Cluster, DifferentSeedsDiffer) {
  auto cfg = small_config();
  cfg.seed = 1;
  const ExperimentResult a = run_experiment(cfg, small_window());
  cfg.seed = 2;
  const ExperimentResult b = run_experiment(cfg, small_window());
  EXPECT_NE(a.requests_generated, b.requests_generated);
}

TEST(Cluster, ProgressMessagesOnlyForFeedbackPolicies) {
  EXPECT_EQ(run_experiment(small_config(sched::Policy::kFcfs), small_window())
                .progress_messages,
            0u);
  EXPECT_EQ(run_experiment(small_config(sched::Policy::kDasNoAdapt), small_window())
                .progress_messages,
            0u);
  EXPECT_GT(run_experiment(small_config(sched::Policy::kDas), small_window())
                .progress_messages,
            0u);
}

TEST(Cluster, NetworkTrafficAccounted) {
  const ExperimentResult r = run_experiment(small_config(), small_window());
  // At least one request message and one response per op.
  EXPECT_GE(r.net_messages, 2 * r.ops_generated);
  EXPECT_GT(r.net_bytes, 0u);
}

// Every byte on the network is a 102-byte op, a 71-byte response header
// plus the 100-byte value of a read hit, or a 37-byte progress update.
TEST(Cluster, NetBytesMatchTheSizeModel) {
  auto cfg = small_config();
  cfg.value_size_bytes = make_constant(100);
  const ExperimentResult fcfs = run_experiment(cfg, small_window());
  ASSERT_GT(fcfs.ops_generated, 0u);
  EXPECT_EQ(fcfs.progress_messages, 0u);
  EXPECT_EQ(fcfs.net_bytes, fcfs.ops_generated * 102 + fcfs.ops_completed * 171);

  cfg.policy = sched::Policy::kDas;
  const ExperimentResult das = run_experiment(cfg, small_window());
  ASSERT_GT(das.progress_messages, 0u);
  EXPECT_EQ(das.net_messages,
            das.ops_generated + das.ops_completed + das.progress_messages);
  EXPECT_EQ(das.net_bytes, das.ops_generated * 102 + das.ops_completed * 171 +
                               das.progress_messages * 37);
}

TEST(Cluster, RingPartitionerWorksEndToEnd) {
  auto cfg = small_config();
  cfg.ring_vnodes = 64;
  const ExperimentResult r = run_experiment(cfg, small_window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
}

TEST(Cluster, RctDominatesOpLatency) {
  const ExperimentResult r = run_experiment(small_config(), small_window());
  // A request is the max of its ops plus network: mean RCT must exceed mean
  // per-op service latency.
  EXPECT_GT(r.rct.mean, r.op_latency.mean);
}

TEST(Cluster, CompareHarnessCoversAllPolicies) {
  const auto runs = compare_policies(small_config(),
                                     {sched::Policy::kFcfs, sched::Policy::kDas},
                                     small_window());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].policy, sched::Policy::kFcfs);
  EXPECT_EQ(runs[1].policy, sched::Policy::kDas);
  EXPECT_EQ(runs[0].result.requests_generated, runs[1].result.requests_generated);
  EXPECT_GT(gain_over_fcfs(runs[0].result.rct.mean, runs[1].result.rct.mean),
            -1.0);
}

TEST(Cluster, TimeVaryingSpeedProfilesRun) {
  auto cfg = small_config();
  cfg.speed_profiles = {workload::make_markov_two_state(1.0, 0.5, 10000.0, 5000.0,
                                                        1e6, 99)};
  cfg.target_load = 0.5;
  const ExperimentResult r = run_experiment(cfg, small_window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
}

TEST(Cluster, LoadProfileModulatesArrivals) {
  auto cfg = small_config();
  cfg.load_profile = workload::make_sinusoidal_rate(1.0, 0.6, 20.0 * kMillisecond);
  const ExperimentResult r = run_experiment(cfg, small_window());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_GT(r.requests_measured, 0u);
}

TEST(Cluster, LegacyConfigHasNoTenantBreakdown) {
  const ExperimentResult r = run_experiment(small_config(), small_window());
  EXPECT_TRUE(r.tenants.empty());
  EXPECT_DOUBLE_EQ(r.jain_fairness, 1.0);
}

TEST(ClusterTenants, LegacySpecMatchesEmptyTenantList) {
  // An empty tenant list runs one default tenant, so spelling that tenant
  // out changes nothing but the per-tenant report.
  for (const LoadCalibration calibration :
       {LoadCalibration::kAverageCapacity, LoadCalibration::kHottestServer}) {
    auto cfg = small_config(sched::Policy::kDas);
    cfg.zipf_theta = 0.9;
    cfg.load_calibration = calibration;
    cfg.replication = 2;
    cfg.write_fraction = 0.2;
    const ExperimentResult legacy = run_experiment(cfg, small_window());
    workload::TenantSpec inherit_all;
    inherit_all.name = "t0";
    cfg.tenants = {inherit_all};
    const ExperimentResult spelled = run_experiment(cfg, small_window());
    EXPECT_TRUE(legacy.tenants.empty());
    ASSERT_EQ(spelled.tenants.size(), 1u);
    EXPECT_EQ(spelled.tenants[0].requests_generated, legacy.requests_generated);
    EXPECT_EQ(spelled.requests_generated, legacy.requests_generated);
    EXPECT_EQ(spelled.ops_generated, legacy.ops_generated);
    EXPECT_EQ(spelled.rct.mean, legacy.rct.mean);
    EXPECT_EQ(spelled.rct.p50, legacy.rct.p50);
    EXPECT_EQ(spelled.rct.p99, legacy.rct.p99);
  }
}

TEST(ClusterTenants, AccountingClosesExactly) {
  auto cfg = small_config();
  cfg.tenants = workload::parse_tenants("ycsb-c;ycsb-b+share:2;ycsb-a+name:w");
  const ExperimentResult r = run_experiment(cfg, small_window());
  ASSERT_EQ(r.tenants.size(), 3u);
  EXPECT_EQ(r.tenants[0].name, "t0");
  EXPECT_EQ(r.tenants[1].name, "t1");
  EXPECT_EQ(r.tenants[2].name, "w");
  EXPECT_DOUBLE_EQ(r.tenants[1].share, 2.0);
  std::uint64_t generated = 0, completed = 0, failed = 0, measured = 0;
  for (const TenantOutcome& t : r.tenants) {
    // Per-tenant conservation, exactly.
    EXPECT_EQ(t.requests_generated, t.requests_completed + t.requests_failed)
        << t.name;
    EXPECT_GT(t.requests_measured, 0u) << t.name;
    generated += t.requests_generated;
    completed += t.requests_completed;
    failed += t.requests_failed;
    measured += t.requests_measured;
  }
  // Tenant rows partition the cluster totals, exactly.
  EXPECT_EQ(generated, r.requests_generated);
  EXPECT_EQ(completed, r.requests_completed);
  EXPECT_EQ(failed, r.requests_failed);
  EXPECT_EQ(measured, r.requests_measured);
  EXPECT_GT(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0);
}

TEST(ClusterTenants, SharesSplitTheArrivalRate) {
  auto cfg = small_config();
  cfg.tenants = workload::parse_tenants("ycsb-c+share:1;ycsb-c+share:3");
  RunWindow w;
  w.warmup_us = 5.0 * kMillisecond;
  w.measure_us = 100.0 * kMillisecond;
  const ExperimentResult r = run_experiment(cfg, w);
  ASSERT_EQ(r.tenants.size(), 2u);
  const double ratio = static_cast<double>(r.tenants[1].requests_generated) /
                       static_cast<double>(r.tenants[0].requests_generated);
  EXPECT_NEAR(ratio, 3.0, 0.35);
}

TEST(ClusterTenants, MultiTenantRunsAreBitIdentical) {
  auto cfg = small_config();
  cfg.tenants = workload::parse_tenants(
      "ycsb-b+zipf:1.1+drift:5000:13+storm:8000:20000:4:0.6:7;ycsb-c");
  const ExperimentResult a = run_experiment(cfg, small_window());
  const ExperimentResult b = run_experiment(cfg, small_window());
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].requests_generated, b.tenants[t].requests_generated);
    EXPECT_DOUBLE_EQ(a.tenants[t].rct.mean, b.tenants[t].rct.mean);
  }
  EXPECT_DOUBLE_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.net_messages, b.net_messages);
}

TEST(ClusterTenants, RecordThenReplayPreservesOpCount) {
  auto cfg = small_config();
  cfg.tenants = workload::parse_tenants("ycsb-b+zipf:0.9");
  workload::ReplayTrace recorded;
  {
    Cluster cluster{cfg, small_window()};
    cluster.set_workload_recorder(&recorded);
    cluster.run();
  }
  ASSERT_GT(recorded.size(), 0u);
  const std::string path = ::testing::TempDir() + "cluster_replay.csv";
  recorded.save(path);

  auto replay_cfg = small_config();
  replay_cfg.tenants = workload::parse_tenants("replay:" + path);
  const ExperimentResult r = run_experiment(replay_cfg, small_window());
  // The trace stores one record per operation; replay turns each into a
  // single-op request, so op counts round-trip exactly.
  EXPECT_EQ(r.ops_generated, recorded.size());
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants[0].requests_generated, recorded.size());
}

}  // namespace
}  // namespace das::core
