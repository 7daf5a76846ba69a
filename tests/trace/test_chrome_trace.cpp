// End-to-end tracing: a traced cluster run streams a well-formed Chrome
// trace-event JSON, tracing is an observation-only side channel (bit-identical
// ExperimentResult with and without it), and traced runs are themselves
// deterministic (byte-identical JSON for the same seed).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "trace/tracer.hpp"
#include "trace_lines.hpp"

namespace das::trace {
namespace {

using testing::event_lines;
using testing::field;
using testing::has;

core::ClusterConfig traced_config() {
  core::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = 0.7;
  cfg.policy = sched::Policy::kDas;
  cfg.seed = 4242;
  return cfg;
}

core::RunWindow short_window() {
  core::RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 15.0 * kMillisecond;
  return w;
}

struct TracedRun {
  core::ExperimentResult result;
  std::string json;
  std::uint64_t retained = 0;
  std::uint64_t dropped = 0;
};

TracedRun traced_run(const core::ClusterConfig& cfg,
                     std::size_t cap = Tracer::kDefaultCap) {
  std::ostringstream os;
  Tracer tracer{os, cap};
  TracedRun run;
  run.result = core::run_experiment(cfg, short_window(), &tracer);
  tracer.finish();
  run.json = os.str();
  run.retained = tracer.retained();
  run.dropped = tracer.dropped();
  return run;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

void expect_bit_identical(const core::ExperimentResult& a,
                          const core::ExperimentResult& b) {
  EXPECT_EQ(a.rct.count, b.rct.count);
  EXPECT_EQ(a.rct.mean, b.rct.mean);
  EXPECT_EQ(a.rct.p99, b.rct.p99);
  EXPECT_EQ(a.op_latency.mean, b.op_latency.mean);
  EXPECT_EQ(a.op_wait.mean, b.op_wait.mean);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.progress_messages, b.progress_messages);
  EXPECT_EQ(a.mean_server_utilization, b.mean_server_utilization);
  EXPECT_EQ(a.ops_deferred, b.ops_deferred);
  EXPECT_EQ(a.ops_resumed, b.ops_resumed);
  EXPECT_EQ(a.ops_aged, b.ops_aged);
  EXPECT_EQ(a.reranks_applied, b.reranks_applied);
  EXPECT_EQ(a.breakdown.requests, b.breakdown.requests);
  EXPECT_EQ(a.breakdown.mean_network_us, b.breakdown.mean_network_us);
  EXPECT_EQ(a.breakdown.mean_runnable_wait_us, b.breakdown.mean_runnable_wait_us);
  EXPECT_EQ(a.breakdown.mean_deferred_wait_us, b.breakdown.mean_deferred_wait_us);
  EXPECT_EQ(a.breakdown.mean_service_us, b.breakdown.mean_service_us);
  EXPECT_EQ(a.sim_duration_us, b.sim_duration_us);
}

TEST(ChromeTrace, TracingIsObservationOnly) {
  // A traced run must be bit-identical to an untraced one: no extra simulator
  // events, no RNG draws, no wire-size changes.
  const auto cfg = traced_config();
  const core::ExperimentResult plain = core::run_experiment(cfg, short_window());
  const TracedRun traced = traced_run(cfg);
  EXPECT_GT(traced.retained, 0u);
  expect_bit_identical(plain, traced.result);
}

TEST(ChromeTrace, SameSeedProducesByteIdenticalJson) {
  const auto cfg = traced_config();
  const TracedRun a = traced_run(cfg);
  const TracedRun b = traced_run(cfg);
  ASSERT_EQ(a.retained, b.retained);
  EXPECT_EQ(a.json, b.json);
}

TEST(ChromeTrace, CoversTheOpLifecycle) {
  const TracedRun run = traced_run(traced_config());
  const core::ExperimentResult& r = run.result;

  std::map<std::string, std::size_t> count;  // "<ph> <cat or name>" -> lines
  double last_ts = 0;
  for (const std::string& line : event_lines(run.json)) {
    const std::string ph = field(line, "ph");
    if (ph == "\"M\"") continue;
    const std::string cat = field(line, "cat");
    ++count[ph + " " + (cat.empty() ? field(line, "name") : cat)];
    // The writer preserves simulator dispatch order, so the timestamps are
    // non-decreasing.
    const double ts = std::stod(field(line, "ts"));
    EXPECT_GE(ts, last_ts) << line;
    last_ts = ts;
  }
  EXPECT_EQ(count[R"("b" "request")"], r.requests_generated);
  EXPECT_EQ(count[R"("e" "request")"], r.requests_completed);
  EXPECT_EQ(count[R"("s" "op")"], r.ops_generated);
  EXPECT_EQ(count[R"("t" "op")"], r.ops_generated);
  EXPECT_EQ(count[R"("f" "op")"], r.ops_completed);
  // Non-preemptive run: every op has exactly one service slice.
  EXPECT_EQ(count[R"("B" "serve")"], r.ops_completed);
  EXPECT_EQ(count[R"("E" "serve")"], r.ops_completed);
  // DAS under load exercises its deferral machinery. A deferral opens a span
  // (re-deferring an op already inside one adds nothing); a resume, or
  // service straight out of the deferred set, closes it.
  EXPECT_GT(count[R"("b" "deferred")"], 0u);
  EXPECT_LE(count[R"("b" "deferred")"], r.ops_deferred);
  EXPECT_EQ(count[R"("e" "deferred")"], count[R"("b" "deferred")"]);
  EXPECT_GE(count[R"("e" "deferred")"], r.ops_resumed);
  // Each counter sample writes its four gauges.
  EXPECT_GT(count[R"("C" "backlog_us")"], 0u);
  for (const char* gauge : {"mu_hat", "runnable", "deferred"})
    EXPECT_EQ(count[std::string(R"("C" ")") + gauge + "\""],
              count[R"("C" "backlog_us")"])
        << gauge;
}

TEST(ChromeTrace, EveryLaneIsNamedBeforeUse) {
  // One run per lane family: servers and clients (plain), storage threads
  // (LSM store), the cluster lane (a loss burst), and shed instants.
  auto plain = traced_config();
  auto lsm = traced_config();
  lsm.store_model = core::StoreModel::kLsm;
  lsm.write_fraction = 0.3;
  lsm.lsm.memtable_bytes = 8.0 * 1024.0;
  lsm.lsm.compaction_bytes_per_us = 1.0;
  lsm.lsm.stall_debt_bytes = 16.0 * 1024.0;
  auto faults = traced_config();
  faults.replication = 2;
  faults.retry_timeout_us = 2.0 * kMillisecond;
  faults.fault_plan =
      fault::parse_fault_plan("crash@8ms:s3,recover@12ms:s3,lossburst@4ms-6ms:p0.3");
  auto overload = traced_config();
  overload.target_load = 1.2;
  overload.overload.queue_cap = 24;
  overload.overload.deadline_budget_us = 4.0 * kMillisecond;

  std::set<std::string> seen;  // lane families that carried events
  for (const auto& cfg : {plain, lsm, faults, overload}) {
    const TracedRun run = traced_run(cfg);
    std::set<std::string> processes;  // pid
    std::set<std::pair<std::string, std::string>> threads;  // (pid, tid)
    std::set<std::string> single_lane;  // processes with one unnamed thread
    for (const std::string& line : event_lines(run.json)) {
      const std::string pid = field(line, "pid");
      const std::string tid = field(line, "tid");
      if (field(line, "ph") == "\"M\"") {
        if (has(line, R"("name": "process_name")")) {
          EXPECT_TRUE(processes.insert(pid).second) << "named twice: " << line;
          // The cluster lane is a process with one thread and no thread name.
          if (has(line, R"({"name": "cluster"})")) single_lane.insert(pid);
        } else {
          EXPECT_TRUE(threads.insert({pid, tid}).second)
              << "named twice: " << line;
        }
        continue;
      }
      EXPECT_EQ(processes.count(pid), 1u) << "unnamed process: " << line;
      if (single_lane.count(pid) == 0) {
        EXPECT_EQ(threads.count({pid, tid}), 1u) << "unnamed thread: " << line;
      }
      if (tid == "2") seen.insert("storage");
      if (single_lane.count(pid) != 0) seen.insert("cluster");
      if (has(line, R"("cat": "overload")")) seen.insert("shed");
    }
  }
  EXPECT_EQ(seen, (std::set<std::string>{"cluster", "shed", "storage"}));
}

TEST(ChromeTrace, JsonShapeAndBalance) {
  const std::string json = traced_run(traced_config()).json;

  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);

  // All phases the exporter promises: metadata, async deferral spans, flow
  // steps, service slices, instants and counters.
  for (const char* phase :
       {"\"ph\": \"M\"", "\"ph\": \"b\"", "\"ph\": \"e\"", "\"ph\": \"s\"",
        "\"ph\": \"t\"", "\"ph\": \"f\"", "\"ph\": \"B\"", "\"ph\": \"E\"",
        "\"ph\": \"C\""})
    EXPECT_NE(json.find(phase), std::string::npos) << phase;

  // Track naming for Perfetto.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("server 0"), std::string::npos);
  EXPECT_NE(json.find("client 0"), std::string::npos);

  // No emitted text contains braces inside strings, so brace balance is a
  // meaningful structural check.
  EXPECT_EQ(count_of(json, "{"), count_of(json, "}"));
  EXPECT_EQ(count_of(json, "["), count_of(json, "]"));

  // Deferral spans are balanced writer-side: every async begin has an end.
  EXPECT_EQ(count_of(json, "\"ph\": \"b\""), count_of(json, "\"ph\": \"e\""));
  // Service slices balance too.
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), count_of(json, "\"ph\": \"E\""));
}

TEST(ChromeTrace, DropCountSurfacesInTheFooter) {
  const TracedRun run = traced_run(traced_config(), /*cap=*/500);
  EXPECT_EQ(run.retained, 500u);
  EXPECT_GT(run.dropped, 0u);
  EXPECT_NE(run.json.find("\"event_cap\": 500"), std::string::npos);
  EXPECT_NE(run.json.find("\"dropped_events\": " + std::to_string(run.dropped)),
            std::string::npos);
}

}  // namespace
}  // namespace das::trace
