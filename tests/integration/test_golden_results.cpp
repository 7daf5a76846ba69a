// Golden pinned-results regression: a fixed-seed E1-style grid (the five
// headline policies x loads {0.5, 0.8}) must reproduce EXACT pinned numbers.
//
// The determinism suite (test_determinism.cpp) proves two runs in the same
// build agree bit-for-bit; this test pins the values themselves, so any
// behaviour drift introduced by a refactor — container iteration order leaking
// into scheduling, an RNG consumed in a different order, a changed tie-break
// — fails loudly instead of silently shifting every published figure. The
// same table also protects every FUTURE refactor of the hot path. The
// engine-overhaul PR's hard constraint ("bit-identical ExperimentResult
// before vs after") is enforced exactly here: the table below was generated
// by the pre-overhaul engine.
//
// Updating the table (ONLY after an intentional behaviour change, with the
// diff explained in the PR):
//
//   DAS_REGEN_GOLDEN=1 ./build/tests/test_integration
//       --gtest_filter='GoldenResults.*' 2>/dev/null   (one command line)
//
// and paste the printed rows over kGolden below. Values are printed with
// %.17g, which round-trips doubles exactly, so EXPECT_EQ on the parsed
// literals is bit-exact.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "workload/registry.hpp"

namespace das::core {
namespace {

struct GoldenCase {
  sched::Policy policy;
  double load;
};

struct GoldenRow {
  sched::Policy policy;
  double load;
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
};

// The five headline policies of the paper's figures (headline_policies()
// in tools/experiments.cpp), at a moderate and a high load.
constexpr GoldenCase kGrid[] = {
    {sched::Policy::kFcfs, 0.5},    {sched::Policy::kFcfs, 0.8},
    {sched::Policy::kSjf, 0.5},     {sched::Policy::kSjf, 0.8},
    {sched::Policy::kReqSrpt, 0.5}, {sched::Policy::kReqSrpt, 0.8},
    {sched::Policy::kReinSbf, 0.5}, {sched::Policy::kReinSbf, 0.8},
    {sched::Policy::kDas, 0.5},     {sched::Policy::kDas, 0.8},
};

ClusterConfig golden_config(sched::Policy policy, double load) {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = load;
  cfg.policy = policy;
  cfg.seed = 20260805;
  return cfg;
}

RunWindow golden_window() {
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 20.0 * kMillisecond;
  return w;
}

const char* policy_token(sched::Policy policy) {
  switch (policy) {
    case sched::Policy::kFcfs: return "sched::Policy::kFcfs";
    case sched::Policy::kSjf: return "sched::Policy::kSjf";
    case sched::Policy::kReqSrpt: return "sched::Policy::kReqSrpt";
    case sched::Policy::kReinSbf: return "sched::Policy::kReinSbf";
    case sched::Policy::kDas: return "sched::Policy::kDas";
    default: return "sched::Policy::kFcfs";
  }
}

// Pinned by the pre-overhaul engine (see the regen instructions above).
const GoldenRow kGolden[] = {
    // clang-format off
    {sched::Policy::kFcfs, 0.50, 238u, 111.7815549937673, 411.93545138558216},
    {sched::Policy::kFcfs, 0.80, 409u, 234.13564971657101, 771.03788468444714},
    {sched::Policy::kSjf, 0.50, 238u, 115.89562849463877, 538.89761471378563},
    {sched::Policy::kSjf, 0.80, 409u, 274.25575052204283, 1743.5257573947529},
    {sched::Policy::kReqSrpt, 0.50, 238u, 99.653541968123918, 468.82096919418495},
    {sched::Policy::kReqSrpt, 0.80, 409u, 159.21952965601406, 786.5357461666041},
    {sched::Policy::kReinSbf, 0.50, 238u, 101.95866451283365, 589.38438469719779},
    {sched::Policy::kReinSbf, 0.80, 409u, 176.83738478890336, 1346.0855100626377},
    {sched::Policy::kDas, 0.50, 238u, 100.2852144744184, 468.82096919418495},
    {sched::Policy::kDas, 0.80, 409u, 163.36876977997159, 1136.6043007220296},
    // clang-format on
};

// --- replica-selection dimension --------------------------------------------
//
// Same idea, one level up the stack: the client-side replica-selection layer
// (src/select) must not drift either. Replication 2 under DAS (the adaptive
// view feeds selection) pins every selection mode at the same two loads. The
// primary/random/least-delay rows below were generated BEFORE the selector
// refactor (PR 7) promoted the inline `Client::pick_server` switch into the
// pluggable layer — they prove the refactor is bit-exact. The tars and
// power-of-d rows pin the new modes from their first version.

struct SelectionGoldenRow {
  ReplicaSelection selection;
  double load;
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
};

constexpr ReplicaSelection kSelectionModes[] = {
    ReplicaSelection::kPrimary,    ReplicaSelection::kRandom,
    ReplicaSelection::kLeastDelay, ReplicaSelection::kTars,
    ReplicaSelection::kPowerOfD,   ReplicaSelection::kC3,
};

ClusterConfig selection_golden_config(ReplicaSelection selection, double load) {
  ClusterConfig cfg = golden_config(sched::Policy::kDas, load);
  cfg.replication = 2;
  cfg.replica_selection = selection;
  return cfg;
}

const char* selection_token(ReplicaSelection selection) {
  switch (selection) {
    case ReplicaSelection::kPrimary: return "ReplicaSelection::kPrimary";
    case ReplicaSelection::kRandom: return "ReplicaSelection::kRandom";
    case ReplicaSelection::kLeastDelay: return "ReplicaSelection::kLeastDelay";
    case ReplicaSelection::kTars: return "ReplicaSelection::kTars";
    case ReplicaSelection::kPowerOfD: return "ReplicaSelection::kPowerOfD";
    case ReplicaSelection::kC3: return "ReplicaSelection::kC3";
  }
  return "ReplicaSelection::kPrimary";
}

// Pinned by the pre-refactor inline pick_server (see above).
const SelectionGoldenRow kSelectionGolden[] = {
    // clang-format off
    {ReplicaSelection::kPrimary, 0.50, 238u, 100.2852144744184, 468.82096919418495},
    {ReplicaSelection::kPrimary, 0.80, 409u, 163.36876977997159, 1136.6043007220296},
    {ReplicaSelection::kRandom, 0.50, 304u, 110.09686772357466, 450.52773647699598},
    {ReplicaSelection::kRandom, 0.80, 512u, 156.60461695419744, 712.04055040433855},
    {ReplicaSelection::kLeastDelay, 0.50, 308u, 128.04665772156497, 544.28659086092296},
    {ReplicaSelection::kLeastDelay, 0.80, 504u, 168.51746036498113, 851.70550695269287},
    {ReplicaSelection::kTars, 0.50, 308u, 140.72191534556796, 684.25697341329601},
    {ReplicaSelection::kTars, 0.80, 504u, 177.07133119319812, 950.2208747876565},
    {ReplicaSelection::kPowerOfD, 0.50, 279u, 120.5384824696981, 549.72945676953248},
    {ReplicaSelection::kPowerOfD, 0.80, 467u, 168.45944438727741, 860.22256202222036},
    {ReplicaSelection::kC3, 0.50, 308u, 128.04665772156497, 544.28659086092296},
    {ReplicaSelection::kC3, 0.80, 504u, 168.51746036498113, 851.70550695269287},
    // clang-format on
};

TEST(GoldenResults, PinnedSelectionGridIsBitExact) {
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const ReplicaSelection selection : kSelectionModes) {
      for (const double load : {0.5, 0.8}) {
        const ExperimentResult r = run_experiment(
            selection_golden_config(selection, load), golden_window());
        std::printf("    {%s, %.2f, %lluu, %.17g, %.17g},\n",
                    selection_token(selection), load,
                    static_cast<unsigned long long>(r.requests_measured),
                    r.rct.mean, r.rct.p99);
      }
    }
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  ASSERT_EQ(std::size(kSelectionGolden), std::size(kSelectionModes) * 2)
      << "selection golden table incomplete — regenerate with "
         "DAS_REGEN_GOLDEN=1";
  for (const SelectionGoldenRow& row : kSelectionGolden) {
    SCOPED_TRACE(std::string(selection_token(row.selection)) +
                 " @ load=" + std::to_string(row.load));
    const ExperimentResult r = run_experiment(
        selection_golden_config(row.selection, row.load), golden_window());
    EXPECT_EQ(r.requests_measured, row.requests_measured);
    EXPECT_EQ(r.rct.mean, row.mean_rct_us);
    EXPECT_EQ(r.rct.p99, row.p99_us);
  }
}

// --- multi-tenant dimension -------------------------------------------------
//
// One pinned multi-tenant row: a drifting, storm-prone YCSB-B tenant next to
// a read-only tenant with twice the arrival share, under DAS at load 0.8.
// This pins the whole tenant pipeline — registry parsing, per-tenant
// generators (drift rotation + storm hot sets), share-split arrivals and
// per-tenant accounting — on top of the same golden cluster. The legacy
// rows above MUST stay bit-identical; tenancy is opt-in and the legacy RNG
// fork order does not change.

struct TenantGoldenRow {
  const char* name;
  std::uint64_t requests_measured;
  double mean_rct_us;
};

constexpr const char* kTenantGoldenSpec =
    "ycsb-b+zipf:1.1+drift:4000:13+storm:6000:14000:4:0.6:7+name:bursty;"
    "ycsb-c+share:2+name:steady";

// Pinned by the first tenant-aware engine (regen as above). Re-pinned once
// when the hottest-server calibration moved to per-operation shares divided
// by the mean ops per request: same requests, means within 4e-15 relative.
const TenantGoldenRow kTenantGolden[] = {
    // clang-format off
    {"bursty", 164u, 157.40095129006502},
    {"steady", 324u, 201.15427001080562},
    // clang-format on
};
const double kTenantGoldenJain = 0.98532795326169398;

TEST(GoldenResults, PinnedTenantRowIsBitExact) {
  ClusterConfig cfg = golden_config(sched::Policy::kDas, 0.8);
  cfg.tenants = workload::parse_tenants(kTenantGoldenSpec);
  const ExperimentResult r = run_experiment(cfg, golden_window());
  ASSERT_EQ(r.tenants.size(), 2u);
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const TenantOutcome& t : r.tenants) {
      std::printf("    {\"%s\", %lluu, %.17g},\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.requests_measured),
                  t.rct.mean);
    }
    std::printf("const double kTenantGoldenJain = %.17g;\n", r.jain_fairness);
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE(kTenantGolden[t].name);
    EXPECT_EQ(r.tenants[t].name, kTenantGolden[t].name);
    EXPECT_EQ(r.tenants[t].requests_measured, kTenantGolden[t].requests_measured);
    EXPECT_EQ(r.tenants[t].rct.mean, kTenantGolden[t].mean_rct_us);
  }
  EXPECT_EQ(r.jain_fairness, kTenantGoldenJain);
}

// --- scheduler-variant dimension --------------------------------------------
//
// The headline grid above leaves most policy variants and two mechanisms
// unexercised: the ablations run only through the benches, aging never fires
// inside the 20 ms window at the default 50 ms bound, and servers never
// preempt. These rows pin each at load 0.8, with the scheduler's mechanism
// counters next to the RCT figures, so a rewrite of a policy's queue must
// reproduce both what it served and how often each mechanism acted.

struct VariantCase {
  const char* label;
  sched::Policy policy;
  Duration max_wait_us;  // sched_config.max_wait_us
  bool preemptive;       // preemptive_service
};

struct VariantGoldenRow {
  const char* label;
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
  std::uint64_t ops_deferred;
  std::uint64_t ops_resumed;
  std::uint64_t ops_aged;
  std::uint64_t reranks_applied;
};

constexpr Duration kDefaultWait = 50.0 * kMillisecond;
constexpr Duration kShortWait = 1.0 * kMillisecond;

constexpr VariantCase kVariants[] = {
    {"edf", sched::Policy::kEdf, kDefaultWait, false},
    {"das-na", sched::Policy::kDasNoAdapt, kDefaultWait, false},
    {"das-nd", sched::Policy::kDasNoDefer, kDefaultWait, false},
    {"das-noaging", sched::Policy::kDasNoAging, kDefaultWait, false},
    {"das-crit", sched::Policy::kDasCritical, kDefaultWait, false},
    {"rein-sbf/wait-1ms", sched::Policy::kReinSbf, kShortWait, false},
    {"das/wait-1ms", sched::Policy::kDas, kShortWait, false},
    {"req-srpt/preemptive", sched::Policy::kReqSrpt, kDefaultWait, true},
    {"das/preemptive", sched::Policy::kDas, kDefaultWait, true},
};

ClusterConfig variant_config(const VariantCase& c) {
  ClusterConfig cfg = golden_config(c.policy, 0.8);
  cfg.sched_config.max_wait_us = c.max_wait_us;
  cfg.preemptive_service = c.preemptive;
  return cfg;
}

// Pinned before the priority schedulers moved onto the indexed heap.
const VariantGoldenRow kVariantGolden[] = {
    // clang-format off
    {"edf", 409u, 234.13564971657101, 771.03788468444714, 0u, 0u, 0u, 0u},
    {"das-na", 409u, 175.97475496784469, 1945.1964991209986, 441u, 178u, 0u, 0u},
    {"das-nd", 409u, 159.21952965601406, 786.5357461666041, 0u, 0u, 0u, 11537u},
    {"das-noaging", 409u, 163.36876977997159, 1136.6043007220296, 6103u, 579u, 0u, 11694u},
    {"das-crit", 409u, 173.98772962868534, 1428.8968933635158, 6428u, 556u, 0u, 11191u},
    {"rein-sbf/wait-1ms", 409u, 180.85666284645743, 1147.9703437292508, 0u, 0u, 52u, 0u},
    {"das/wait-1ms", 409u, 172.96419953747863, 1171.0445476382081, 6122u, 585u, 57u, 11808u},
    // Re-pinned when req-srpt started retagging on progress: a preempt-resume
    // server now compares and re-enqueues on an op's current total.
    {"req-srpt/preemptive", 409u, 154.25617656352296, 818.47225146931123, 0u, 0u, 0u, 11347u},
    {"das/preemptive", 409u, 158.80518409123403, 1319.5623076783043, 6670u, 676u, 0u, 11762u},
    // clang-format on
};

TEST(GoldenResults, PinnedVariantGridIsBitExact) {
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const VariantCase& c : kVariants) {
      const ExperimentResult r = run_experiment(variant_config(c), golden_window());
      std::printf("    {\"%s\", %lluu, %.17g, %.17g, %lluu, %lluu, %lluu, %lluu},\n",
                  c.label, static_cast<unsigned long long>(r.requests_measured),
                  r.rct.mean, r.rct.p99,
                  static_cast<unsigned long long>(r.ops_deferred),
                  static_cast<unsigned long long>(r.ops_resumed),
                  static_cast<unsigned long long>(r.ops_aged),
                  static_cast<unsigned long long>(r.reranks_applied));
    }
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  ASSERT_EQ(std::size(kVariantGolden), std::size(kVariants))
      << "variant golden table incomplete — regenerate with DAS_REGEN_GOLDEN=1";
  for (std::size_t i = 0; i < std::size(kVariants); ++i) {
    const VariantCase& c = kVariants[i];
    const VariantGoldenRow& row = kVariantGolden[i];
    SCOPED_TRACE(c.label);
    ASSERT_STREQ(row.label, c.label);
    const ExperimentResult r = run_experiment(variant_config(c), golden_window());
    EXPECT_EQ(r.requests_measured, row.requests_measured);
    EXPECT_EQ(r.rct.mean, row.mean_rct_us);
    EXPECT_EQ(r.rct.p99, row.p99_us);
    EXPECT_EQ(r.ops_deferred, row.ops_deferred);
    EXPECT_EQ(r.ops_resumed, row.ops_resumed);
    EXPECT_EQ(r.ops_aged, row.ops_aged);
    EXPECT_EQ(r.reranks_applied, row.reranks_applied);
    // The short bound exists to make aging act inside the window.
    if (c.max_wait_us == kShortWait) {
      EXPECT_GT(r.ops_aged, 0u);
    }
  }
}

// --- lossy, jittered network -----------------------------------------------
//
// Every row above runs a constant-latency, lossless network, so every
// delivery takes the simulator's FIFO lane. This row pins the other delivery
// paths: lognormal jitter sends a delivery due before the lane's tail to the
// event heap, message loss and a scripted partition drop messages before they
// are scheduled, and retries plus hedged reads at replication 2 put
// duplicates and cancelled timers on the wire. The dispatch counts sit next
// to the results, so a change that moves a delivery between lane and heap, or
// delivers a dropped message, fails here.

struct NetworkGoldenRow {
  std::uint64_t requests_measured;
  double mean_rct_us;
  double p99_us;
  std::uint64_t net_messages;
  std::uint64_t net_messages_dropped;
  std::uint64_t net_messages_dropped_partition;
  std::uint64_t ops_retransmitted;
  std::uint64_t ops_hedged;
  std::uint64_t duplicate_responses;
  std::uint64_t events;
  std::uint64_t lane_events;
};

ClusterConfig network_golden_config() {
  ClusterConfig cfg = golden_config(sched::Policy::kDas, 0.8);
  cfg.replication = 2;
  cfg.net_jitter_sigma = 0.8;
  cfg.msg_loss_probability = 0.02;
  cfg.retry_timeout_us = 1500.0;
  cfg.hedge_delay_us = 400.0;
  cfg.fault_plan = fault::parse_fault_plan("partition@6ms:c0-s1,heal@12ms:c0-s1");
  return cfg;
}

// Pinned before network deliveries became typed messages.
const NetworkGoldenRow kNetworkGolden = {
    // clang-format off
    409u, 317.11318942568187, 1796.356331369572, 17693u, 711u, 364u, 26u, 495u, 287u, 21848u, 4533u,
    // clang-format on
};

TEST(GoldenResults, PinnedLossyJitteredRowIsBitExact) {
  Cluster cluster{network_golden_config(), golden_window()};
  const ExperimentResult r = cluster.run();
  const sim::Simulator& sim = cluster.simulator();
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    std::printf("    %lluu, %.17g, %.17g, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu, %lluu, %lluu,\n",
                static_cast<unsigned long long>(r.requests_measured), r.rct.mean,
                r.rct.p99, static_cast<unsigned long long>(r.net_messages),
                static_cast<unsigned long long>(r.net_messages_dropped),
                static_cast<unsigned long long>(r.net_messages_dropped_partition),
                static_cast<unsigned long long>(r.ops_retransmitted),
                static_cast<unsigned long long>(r.ops_hedged),
                static_cast<unsigned long long>(r.duplicate_responses),
                static_cast<unsigned long long>(sim.events_dispatched()),
                static_cast<unsigned long long>(sim.lane_events()));
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed a fresh row, skipped the "
                    "comparison";
  }
  const NetworkGoldenRow& row = kNetworkGolden;
  EXPECT_EQ(r.requests_measured, row.requests_measured);
  EXPECT_EQ(r.rct.mean, row.mean_rct_us);
  EXPECT_EQ(r.rct.p99, row.p99_us);
  EXPECT_EQ(r.net_messages, row.net_messages);
  EXPECT_EQ(r.net_messages_dropped, row.net_messages_dropped);
  EXPECT_EQ(r.net_messages_dropped_partition, row.net_messages_dropped_partition);
  EXPECT_EQ(r.ops_retransmitted, row.ops_retransmitted);
  EXPECT_EQ(r.ops_hedged, row.ops_hedged);
  EXPECT_EQ(r.duplicate_responses, row.duplicate_responses);
  EXPECT_EQ(sim.events_dispatched(), row.events);
  EXPECT_EQ(sim.lane_events(), row.lane_events);
  // The row exists to cover these paths; a config that stops reaching one
  // of them would pin nothing.
  EXPECT_GT(r.net_messages_dropped_partition, 0u);
  EXPECT_GT(r.net_messages_dropped, r.net_messages_dropped_partition);
  EXPECT_GT(r.ops_retransmitted, 0u);
  EXPECT_GT(r.ops_hedged, 0u);
  EXPECT_LT(sim.lane_events(), r.net_messages - r.net_messages_dropped);
  // A dropped message is never delivered; every other one is, once.
  EXPECT_EQ(cluster.deliveries().total(), r.net_messages - r.net_messages_dropped);
}

TEST(GoldenResults, PinnedGridIsBitExact) {
  if (std::getenv("DAS_REGEN_GOLDEN") != nullptr) {
    for (const GoldenCase& c : kGrid) {
      const ExperimentResult r =
          run_experiment(golden_config(c.policy, c.load), golden_window());
      std::printf("    {%s, %.2f, %lluu, %.17g, %.17g},\n", policy_token(c.policy),
                  c.load, static_cast<unsigned long long>(r.requests_measured),
                  r.rct.mean, r.rct.p99);
    }
    GTEST_SKIP() << "DAS_REGEN_GOLDEN set: printed fresh rows, skipped the "
                    "comparison";
  }
  ASSERT_EQ(std::size(kGolden), std::size(kGrid))
      << "golden table incomplete — regenerate with DAS_REGEN_GOLDEN=1";
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(std::string(sched::to_string(row.policy)) +
                 " @ load=" + std::to_string(row.load));
    const ExperimentResult r =
        run_experiment(golden_config(row.policy, row.load), golden_window());
    EXPECT_EQ(r.requests_measured, row.requests_measured);
    // Exact equality on purpose: these are pinned bits, not approximations.
    EXPECT_EQ(r.rct.mean, row.mean_rct_us);
    EXPECT_EQ(r.rct.p99, row.p99_us);
  }
}

}  // namespace
}  // namespace das::core
