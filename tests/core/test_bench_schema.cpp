// The BENCH JSON writer's bytes, pinned. Every reported field of the two
// rows below holds a distinct value (counts and reals, a count above 2^53,
// an integral real, a non-finite real, two tenants), so a field that moves,
// is renamed, changes block or switches between integer and real printing
// changes the document.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/bench_json.hpp"
#include "core/sweep.hpp"

namespace das::core {
namespace {

LatencySummary latency(double base) {
  LatencySummary s;
  s.count = 7;
  s.mean = base + 0.5;
  s.p50 = base + 0.25;
  s.p95 = base + 1.75;
  s.p99 = base + 2.125;
  s.p999 = base + 3.0625;
  s.max = base + 4.5;
  return s;
}

TenantOutcome tenant(const std::string& name, std::uint64_t base) {
  TenantOutcome t;
  t.name = name;
  t.share = static_cast<double>(base) / 8.0;
  t.requests_generated = base + 1;
  t.requests_completed = base + 2;
  t.requests_failed = base + 3;
  t.requests_measured = base + 4;
  t.requests_failed_measured = base + 5;
  t.requests_shed = base + 6;
  t.requests_expired = base + 7;
  t.requests_shed_measured = base + 8;
  t.requests_expired_measured = base + 9;
  t.goodput_share = static_cast<double>(base) / 1000.0;
  t.rct = latency(static_cast<double>(base) * 10);
  return t;
}

/// A row whose every reported field differs from every other one.
SweepOutcome distinct_row(const char* experiment, sched::Policy policy,
                          std::uint64_t base) {
  ExperimentResult r;
  const auto real = [&](int i) { return static_cast<double>(base) + i + 0.375; };
  r.rct = latency(static_cast<double>(base));
  r.requests_measured = base + 1;
  r.mean_server_utilization = real(2) / 100;
  r.max_server_utilization = real(3) / 100;
  r.ops_deferred = (std::uint64_t{1} << 53) + base + 1;  // exact as a count only
  r.ops_resumed = base + 5;
  r.ops_aged = base + 6;
  r.reranks_applied = base + 7;
  r.breakdown.requests = base + 8;
  r.breakdown.mean_rct_us = real(9);
  r.breakdown.mean_network_us = real(10);
  r.breakdown.mean_runnable_wait_us = real(11);
  r.breakdown.mean_deferred_wait_us = real(12);
  r.breakdown.mean_service_us = real(13);
  r.breakdown.mean_straggler_slack_us = real(14);
  r.availability = real(15) / 1000;
  r.requests_completed = base + 16;
  r.requests_failed = base + 17;
  r.requests_completed_after_failover = base + 18;
  r.ops_failed_over = base + 19;
  r.ops_abandoned = base + 20;
  r.suspicions_raised = base + 21;
  r.ops_dropped_crashed = base + 22;
  r.server_crashes = base + 23;
  r.server_recoveries = base + 24;
  r.net_messages_dropped_partition = base + 25;
  r.goodput_rps = real(26);
  r.throughput_rps = real(27);
  r.requests_shed = base + 28;
  r.requests_shed_admission = base + 29;
  r.requests_expired = base + 30;
  r.requests_shed_measured = base + 31;
  r.requests_expired_measured = base + 32;
  r.ops_rejected_busy = base + 33;
  r.ops_shed_sojourn = base + 34;
  r.ops_expired_dropped = base + 35;
  r.wasted_service_us = static_cast<double>(base + 36);  // integral real
  r.store_flushes = base + 37;
  r.store_compactions = base + 38;
  r.store_write_stalls = base + 39;
  r.store_stalled_write_ops = base + 40;
  r.store_memtable_hits = base + 41;
  r.store_level_reads = base + 42;
  r.store_compaction_busy_us = real(43);
  r.store_write_stall_us = real(44);
  r.jain_fairness = real(45) / 1000;
  r.wall_seconds = real(46);
  // Not reported in the JSON: a change that starts writing one shows.
  r.progress_messages = base + 47;
  r.net_messages = base + 48;
  r.requests_generated = base + 49;
  return {experiment, "p", policy, base + 99, r};
}

std::vector<SweepOutcome> pinned_rows() {
  SweepOutcome das = distinct_row("pin", sched::Policy::kDas, 2000);
  das.result.rct.p999 = std::numeric_limits<double>::quiet_NaN();
  das.result.tenants = {tenant("t0", 3000), tenant("t1", 4000)};
  return {distinct_row("pin", sched::Policy::kFcfs, 1000),
          // Skipped: another experiment's row.
          distinct_row("elsewhere", sched::Policy::kDas, 5000), das};
}

constexpr const char* kPinnedJson = R"json({
  "schema_version": 6,
  "experiment": "pin",
  "points": [
    {
      "point": "p",
      "policy": "fcfs",
      "seed": 1099,
      "requests_measured": 1001,
      "mean_rct_us": 1000.5,
      "p50_us": 1000.25,
      "p95_us": 1001.75,
      "p99_us": 1002.125,
      "p999_us": 1003.0625,
      "max_us": 1004.5,
      "mean_util": 10.02375,
      "max_util": 10.03375,
      "ops_deferred": 9007199254741993,
      "ops_resumed": 1005,
      "ops_aged": 1006,
      "reranks_applied": 1007,
      "breakdown": {
        "requests": 1008,
        "mean_rct_us": 1009.375,
        "network_us": 1010.375,
        "runnable_wait_us": 1011.375,
        "deferred_wait_us": 1012.375,
        "service_us": 1013.375,
        "straggler_slack_us": 1014.375
      },
      "degradation": {
        "availability": 1.0153749999999999,
        "requests_completed": 1016,
        "requests_failed": 1017,
        "requests_completed_after_failover": 1018,
        "ops_failed_over": 1019,
        "ops_abandoned": 1020,
        "suspicions_raised": 1021,
        "ops_dropped_crashed": 1022,
        "server_crashes": 1023,
        "server_recoveries": 1024,
        "messages_dropped_partition": 1025
      },
      "overload": {
        "goodput_rps": 1026.375,
        "throughput_rps": 1027.375,
        "requests_shed": 1028,
        "requests_shed_admission": 1029,
        "requests_expired": 1030,
        "requests_shed_measured": 1031,
        "requests_expired_measured": 1032,
        "ops_rejected_busy": 1033,
        "ops_shed_sojourn": 1034,
        "ops_expired_dropped": 1035,
        "wasted_service_us": 1036
      },
      "storage": {
        "flushes": 1037,
        "compactions": 1038,
        "write_stalls": 1039,
        "stalled_write_ops": 1040,
        "memtable_hits": 1041,
        "level_reads": 1042,
        "compaction_busy_us": 1043.375,
        "write_stall_us": 1044.375
      },
      "jain_fairness": 1.0453749999999999,
      "tenants": [],
      "gain_vs_fcfs_pct": 0,
      "wall_seconds": 1046.375
    },
    {
      "point": "p",
      "policy": "das",
      "seed": 2099,
      "requests_measured": 2001,
      "mean_rct_us": 2000.5,
      "p50_us": 2000.25,
      "p95_us": 2001.75,
      "p99_us": 2002.125,
      "p999_us": null,
      "max_us": 2004.5,
      "mean_util": 20.02375,
      "max_util": 20.033750000000001,
      "ops_deferred": 9007199254742993,
      "ops_resumed": 2005,
      "ops_aged": 2006,
      "reranks_applied": 2007,
      "breakdown": {
        "requests": 2008,
        "mean_rct_us": 2009.375,
        "network_us": 2010.375,
        "runnable_wait_us": 2011.375,
        "deferred_wait_us": 2012.375,
        "service_us": 2013.375,
        "straggler_slack_us": 2014.375
      },
      "degradation": {
        "availability": 2.0153750000000001,
        "requests_completed": 2016,
        "requests_failed": 2017,
        "requests_completed_after_failover": 2018,
        "ops_failed_over": 2019,
        "ops_abandoned": 2020,
        "suspicions_raised": 2021,
        "ops_dropped_crashed": 2022,
        "server_crashes": 2023,
        "server_recoveries": 2024,
        "messages_dropped_partition": 2025
      },
      "overload": {
        "goodput_rps": 2026.375,
        "throughput_rps": 2027.375,
        "requests_shed": 2028,
        "requests_shed_admission": 2029,
        "requests_expired": 2030,
        "requests_shed_measured": 2031,
        "requests_expired_measured": 2032,
        "ops_rejected_busy": 2033,
        "ops_shed_sojourn": 2034,
        "ops_expired_dropped": 2035,
        "wasted_service_us": 2036
      },
      "storage": {
        "flushes": 2037,
        "compactions": 2038,
        "write_stalls": 2039,
        "stalled_write_ops": 2040,
        "memtable_hits": 2041,
        "level_reads": 2042,
        "compaction_busy_us": 2043.375,
        "write_stall_us": 2044.375
      },
      "jain_fairness": 2.0453749999999999,
      "tenants": [
        {
          "name": "t0",
          "share": 375,
          "requests_generated": 3001,
          "requests_completed": 3002,
          "requests_failed": 3003,
          "requests_measured": 3004,
          "requests_failed_measured": 3005,
          "requests_shed": 3006,
          "requests_expired": 3007,
          "requests_shed_measured": 3008,
          "requests_expired_measured": 3009,
          "mean_rct_us": 30000.5,
          "p50_us": 30000.25,
          "p95_us": 30001.75,
          "p99_us": 30002.125,
          "p999_us": 30003.0625,
          "max_us": 30004.5,
          "goodput_share": 3
        },
        {
          "name": "t1",
          "share": 500,
          "requests_generated": 4001,
          "requests_completed": 4002,
          "requests_failed": 4003,
          "requests_measured": 4004,
          "requests_failed_measured": 4005,
          "requests_shed": 4006,
          "requests_expired": 4007,
          "requests_shed_measured": 4008,
          "requests_expired_measured": 4009,
          "mean_rct_us": 40000.5,
          "p50_us": 40000.25,
          "p95_us": 40001.75,
          "p99_us": 40002.125,
          "p999_us": 40003.0625,
          "max_us": 40004.5,
          "goodput_share": 4
        }
      ],
      "gain_vs_fcfs_pct": -99.950024987506254,
      "wall_seconds": 2046.375
    }
  ]
}
)json";

TEST(BenchJsonSchema, Schema6BytesArePinned) {
  EXPECT_EQ(bench_json_string("pin", pinned_rows()), kPinnedJson);
}

}  // namespace
}  // namespace das::core
