// SweepRunner determinism and the parallel-equals-serial contract.
//
// The whole point of the sweep subsystem is that fanning a grid across a
// thread pool changes WALL time only: every ExperimentResult must be
// bit-identical to the serial run, outcomes must come back in registration
// order, and the JSON emitter must render them as valid, reproducible JSON.
// Also covers the event-heap compaction the sweep leans on: a compacting run
// must dispatch exactly the same events as a compaction-disabled run.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/bench_json.hpp"
#include "core/cluster.hpp"
#include "core/sweep.hpp"

namespace das::core {
namespace {

ClusterConfig grid_config() {
  ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 100;
  cfg.zipf_theta = 0.9;
  cfg.seed = 4242;
  return cfg;
}

RunWindow short_window() {
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 15.0 * kMillisecond;
  return w;
}

SweepRunner e1_style_grid() {
  SweepRunner runner;
  const auto window = short_window();
  for (const double load : {0.5, 0.7, 0.85}) {
    ClusterConfig cfg = grid_config();
    cfg.target_load = load;
    const std::string point = "load=" + std::to_string(load);
    for (const sched::Policy policy :
         {sched::Policy::kFcfs, sched::Policy::kReinSbf, sched::Policy::kDas}) {
      runner.add("sweep_test", point, policy, cfg, window);
    }
  }
  return runner;
}

void expect_bit_identical(const LatencySummary& a, const LatencySummary& b,
                          const char* which) {
  EXPECT_EQ(a.count, b.count) << which;
  EXPECT_EQ(a.mean, b.mean) << which;
  EXPECT_EQ(a.p50, b.p50) << which;
  EXPECT_EQ(a.p95, b.p95) << which;
  EXPECT_EQ(a.p99, b.p99) << which;
  EXPECT_EQ(a.p999, b.p999) << which;
  EXPECT_EQ(a.max, b.max) << which;
}

void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  expect_bit_identical(a.rct, b.rct, "rct");
  expect_bit_identical(a.op_latency, b.op_latency, "op_latency");
  expect_bit_identical(a.op_wait, b.op_wait, "op_wait");
  EXPECT_EQ(a.requests_generated, b.requests_generated);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.requests_measured, b.requests_measured);
  EXPECT_EQ(a.ops_generated, b.ops_generated);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.mean_server_utilization, b.mean_server_utilization);
  EXPECT_EQ(a.max_server_utilization, b.max_server_utilization);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.progress_messages, b.progress_messages);
  EXPECT_EQ(a.sim_duration_us, b.sim_duration_us);
  // wall_seconds is real time and deliberately excluded.
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial) {
  const SweepRunner runner = e1_style_grid();
  const auto serial = runner.run(1);
  const auto parallel = runner.run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].experiment, parallel[i].experiment);
    EXPECT_EQ(serial[i].point, parallel[i].point);
    EXPECT_EQ(serial[i].policy, parallel[i].policy);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    expect_bit_identical(serial[i].result, parallel[i].result);
  }
}

TEST(SweepRunner, OutcomesComeBackInRegistrationOrder) {
  const SweepRunner runner = e1_style_grid();
  const auto outcomes = runner.run(4);
  ASSERT_EQ(outcomes.size(), 9u);
  std::size_t i = 0;
  for (const double load : {0.5, 0.7, 0.85}) {
    const std::string point = "load=" + std::to_string(load);
    for (const sched::Policy policy :
         {sched::Policy::kFcfs, sched::Policy::kReinSbf, sched::Policy::kDas}) {
      EXPECT_EQ(outcomes[i].point, point);
      EXPECT_EQ(outcomes[i].policy, policy);
      EXPECT_GT(outcomes[i].result.requests_measured, 0u);
      ++i;
    }
  }
}

TEST(SweepRunner, MoreJobsThanPointsIsFine) {
  SweepRunner runner;
  runner.add("sweep_test", "load=0.5", sched::Policy::kFcfs, grid_config(),
             short_window());
  const auto outcomes = runner.run(16);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_GT(outcomes[0].result.requests_measured, 0u);
}

TEST(SweepRunner, FailingPointPropagatesException) {
  SweepRunner runner;
  runner.add("sweep_test", "ok", sched::Policy::kFcfs, grid_config(),
             short_window());
  ClusterConfig bad = grid_config();
  RunWindow bad_window;
  bad_window.measure_us = 0;  // Cluster's precondition check throws
  runner.add("sweep_test", "bad", sched::Policy::kFcfs, bad, bad_window);
  EXPECT_THROW(runner.run(4), std::logic_error);
  EXPECT_THROW(runner.run(1), std::logic_error);
}

TEST(SweepRunner, EmptyGridRunsToNothing) {
  SweepRunner runner;
  EXPECT_TRUE(runner.run(4).empty());
}

TEST(SweepRunner, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(SweepRunner::default_jobs(), 1u);
}

// --- JSON emitter -----------------------------------------------------------

/// Minimal structural validation: balanced braces/brackets outside strings,
/// no bare NaN/Inf tokens, required keys present. (CI additionally parses
/// the emitted files with a real JSON parser.)
void expect_wellformed_json(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  // Non-finite doubles must be emitted as null. Match value positions
  // (": nan", ": inf", "-nan") rather than any substring — the field name
  // "tenants" legitimately contains "nan".
  EXPECT_EQ(json.find(": nan"), std::string::npos);
  EXPECT_EQ(json.find(": -nan"), std::string::npos);
  EXPECT_EQ(json.find(": inf"), std::string::npos);
  EXPECT_EQ(json.find(": -inf"), std::string::npos);
}

TEST(BenchJson, EmitsWellformedReproducibleJson) {
  const SweepRunner runner = e1_style_grid();
  const auto outcomes = runner.run(2);
  const std::string json = bench_json_string("sweep_test", outcomes);
  expect_wellformed_json(json);
  EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"experiment\": \"sweep_test\""), std::string::npos);
  EXPECT_NE(json.find("\"jain_fairness\""), std::string::npos);
  EXPECT_NE(json.find("\"tenants\": []"), std::string::npos);
  EXPECT_NE(json.find("\"overload\""), std::string::npos);
  EXPECT_NE(json.find("\"goodput_rps\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_shed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"storage\""), std::string::npos);
  EXPECT_NE(json.find("\"compaction_busy_us\""), std::string::npos);
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_rct_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\""), std::string::npos);
  EXPECT_NE(json.find("\"gain_vs_fcfs_pct\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_deferred\""), std::string::npos);
  EXPECT_NE(json.find("\"reranks_applied\""), std::string::npos);
  EXPECT_NE(json.find("\"breakdown\""), std::string::npos);
  EXPECT_NE(json.find("\"runnable_wait_us\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"rein-sbf\""), std::string::npos);

  // Everything but wall_seconds is deterministic: strip those lines and two
  // independent emissions must match byte for byte.
  const auto strip_wall = [](std::string s) {
    std::string out;
    std::size_t start = 0;
    while (start < s.size()) {
      std::size_t end = s.find('\n', start);
      if (end == std::string::npos) end = s.size();
      const std::string line = s.substr(start, end - start);
      if (line.find("wall_seconds") == std::string::npos) out += line + '\n';
      start = end + 1;
    }
    return out;
  };
  const std::string again = bench_json_string("sweep_test", runner.run(4));
  EXPECT_EQ(strip_wall(json), strip_wall(again));
}

TEST(BenchJson, EmptyExperimentStillValid) {
  const std::string json = bench_json_string("nothing_ran", {});
  expect_wellformed_json(json);
  EXPECT_NE(json.find("\"points\": []"), std::string::npos);
}

TEST(BenchJson, EscapesLabelStrings) {
  SweepOutcome o;
  o.experiment = "exp";
  o.point = "quote\"back\\slash";
  o.policy = sched::Policy::kFcfs;
  o.result.rct.mean = 1.0;
  const std::string json = bench_json_string("exp", {o});
  expect_wellformed_json(json);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

// --- heap compaction is behaviour-preserving --------------------------------

TEST(HeapCompaction, ClusterRunIdenticalWithAndWithoutCompaction) {
  // Hedged reads set a cancel-heavy timer per operation (the hedge timer is
  // cancelled whenever the primary answers first), exactly the workload the
  // lazy-cancel heap degenerates on. A compacting run must dispatch the same
  // events and produce bit-identical results.
  ClusterConfig cfg = grid_config();
  cfg.replication = 2;
  cfg.replica_selection = ReplicaSelection::kRandom;
  cfg.hedge_delay_us = 0.3 * kMillisecond;
  cfg.target_load = 0.7;

  Cluster with{cfg, short_window()};
  ASSERT_TRUE(with.simulator().compaction_enabled());
  const ExperimentResult a = with.run();

  Cluster without{cfg, short_window()};
  without.simulator().set_compaction_enabled(false);
  const ExperimentResult b = without.run();

  EXPECT_GT(with.simulator().compactions(), 0u);
  EXPECT_EQ(without.simulator().compactions(), 0u);
  EXPECT_EQ(with.simulator().events_dispatched(),
            without.simulator().events_dispatched());
  expect_bit_identical(a, b);
}

TEST(HeapCompaction, AuditedHedgedRunStaysClean) {
  // The extended simulator invariant (dead nodes never outnumber live ones)
  // must hold continuously through a cancel-heavy full run.
  ClusterConfig cfg = grid_config();
  cfg.replication = 2;
  cfg.replica_selection = ReplicaSelection::kRandom;
  cfg.hedge_delay_us = 0.3 * kMillisecond;
  cfg.target_load = 0.7;
  cfg.audit_every_events = 64;
  Cluster cluster{cfg, short_window()};
  const ExperimentResult r = cluster.run();
  EXPECT_EQ(r.requests_generated, r.requests_completed);
  EXPECT_GT(cluster.simulator().audits_run(), 0u);
}

// --- parse_load_list: the --load grid spec --------------------------------

TEST(ParseLoadList, ParsesWellFormedList) {
  EXPECT_EQ(parse_load_list("0.3,0.5,0.8"),
            (std::vector<double>{0.3, 0.5, 0.8}));
  EXPECT_EQ(parse_load_list("0.7"), (std::vector<double>{0.7}));
}

TEST(ParseLoadList, EmptySpecRejected) {
  EXPECT_THROW(parse_load_list(""), std::invalid_argument);
}

TEST(ParseLoadList, MalformedTokenNamedInError) {
  try {
    parse_load_list("0.3,abc,0.8");
    FAIL() << "malformed token accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "malformed load 'abc' in load list");
  }
}

TEST(ParseLoadList, TrailingJunkRejected) {
  try {
    parse_load_list("0.5x");
    FAIL() << "trailing junk accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "malformed load '0.5x' in load list");
  }
}

TEST(ParseLoadList, EmptyElementsRejected) {
  // Double comma, leading comma, trailing comma: all are empty elements a
  // shell-quoting slip produces; none may silently shrink the grid.
  EXPECT_THROW(parse_load_list("0.3,,0.8"), std::invalid_argument);
  EXPECT_THROW(parse_load_list(",0.5"), std::invalid_argument);
  EXPECT_THROW(parse_load_list("0.5,"), std::invalid_argument);
}

TEST(ParseLoadList, OutOfRangeLoadRejected) {
  EXPECT_THROW(parse_load_list("0"), std::invalid_argument);
  EXPECT_THROW(parse_load_list("-0.3"), std::invalid_argument);
  EXPECT_THROW(parse_load_list("10"), std::invalid_argument);  // typo for 1.0
  EXPECT_THROW(parse_load_list("nan"), std::invalid_argument);
  EXPECT_THROW(parse_load_list("inf"), std::invalid_argument);
}

TEST(ParseLoadList, OverloadPointsAccepted) {
  // Loads at or above 1 are legitimate E22 overload points.
  EXPECT_EQ(parse_load_list("0.9,1.0,1.3"),
            (std::vector<double>{0.9, 1.0, 1.3}));
}

}  // namespace
}  // namespace das::core
