// dassim — run arbitrary DAS cluster experiments from the command line.
//
//   ./build/tools/dassim --policy=das --load=0.8 --servers=64
//   ./build/tools/dassim --policy=all --fanout=bimodal:2:32:0.2 --format=csv
//   ./build/tools/dassim --policy=das,fcfs --stragglers=0.25 --straggler-speed=0.5
//   ./build/tools/dassim --sweep --jobs=4 --json=BENCH_sweep.json
//   ./build/tools/dassim --experiment=E5_skew --jobs=4 --json=BENCH_E5_skew.json
//   ./build/tools/dassim --policy=das --trace=trace.json --breakdown
//   ./build/tools/dassim --policy=das --load=1.2 --queue-cap=64 --deadline-ms=20
//   ./build/tools/dassim --policy=das --load=1.2 --admission
//
// Prints one row per policy; --format=csv emits machine-readable output for
// plotting scripts. --sweep runs a (load grid x policy) sweep and
// --experiment one of the registered paper grids (tools/experiments.hpp),
// both across a thread pool (--jobs) with bit-identical-to-serial results;
// --json persists them in the BENCH_<experiment>.json schema. --trace
// streams the full op lifecycle of a single-policy run as Chrome trace-event
// JSON (open in Perfetto), alone or alongside --record; --breakdown prints
// the exact per-component RCT attribution.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/bench_json.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "experiments.hpp"
#include "fault/fault_plan.hpp"
#include "overload/overload.hpp"
#include "select/selector.hpp"
#include "trace/tracer.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"
#include "workload/spec.hpp"

namespace {

using namespace das;

std::vector<sched::Policy> parse_policies(const std::string& spec) {
  if (spec == "all") return sched::all_policies();
  std::vector<sched::Policy> out;
  for (const std::string& name : parse::split(spec, ','))
    out.push_back(sched::policy_from_string(name));
  return out;
}

/// Whether `path` can be opened for writing. Checked before anything runs,
/// so a mistyped output path cannot throw a finished run away; the probe
/// leaves no file behind.
bool writable(const std::string& path) {
  std::error_code ignored;
  const bool existed = std::filesystem::exists(path, ignored);
  const bool ok = std::ofstream{path, std::ios::app}.good();
  if (ok && !existed) std::filesystem::remove(path, ignored);
  return ok;
}

/// --sweep: the ad-hoc (load [x selection] x policy) grid from the cluster
/// flags, labelled "sweep" in tables and JSON.
experiments::Experiment sweep_grid(const core::ClusterConfig& base,
                                   const core::RunWindow& window,
                                   const std::vector<sched::Policy>& policies,
                                   const Flags& flags) {
  experiments::Experiment grid{"sweep", {}, policies, {{"Mean RCT", "mean_rct_us"}}};
  // Optional third grid dimension: replica-selection modes. Empty keeps the
  // single mode of --selection and the plain "load=X" point labels.
  std::vector<core::ReplicaSelection> selections;
  const std::string modes = flags.get_string("sweep-selections");
  if (!modes.empty()) {
    for (const std::string& token : parse::split(modes, ',')) {
      core::ReplicaSelection mode = core::ReplicaSelection::kPrimary;
      if (!select::mode_from_string(token, mode))
        throw std::invalid_argument("unknown --sweep-selections mode: " + token);
      selections.push_back(mode);
    }
    // With one copy per key every mode reads the primary: the rows would be
    // identical runs under different labels.
    if (base.replication < 2) {
      throw std::invalid_argument(
          "flag --sweep-selections: replica selection needs --replication >= 2 "
          "(got " + std::to_string(base.replication) + ")");
    }
  }
  for (const double load : core::parse_load_list(flags.get_string("sweep-loads"))) {
    for (const core::ReplicaSelection sel :
         selections.empty() ? std::vector{base.replica_selection} : selections) {
      core::ClusterConfig cfg = base;
      cfg.target_load = load;
      cfg.replica_selection = sel;
      std::string label = "load=" + Table::fmt(load, 2);
      if (!selections.empty()) label += std::string(" sel=") + select::to_string(sel);
      grid.points.push_back({std::move(label), cfg, window});
    }
  }
  return grid;
}

/// The result columns of every --format=csv row, after its coordinates.
constexpr const char* kCsvColumns =
    "requests,mean_rct_us,p50_us,p95_us,p99_us,p999_us,mean_util,max_util,"
    "net_msgs,progress_msgs\n";

void print_csv_cells(const core::ExperimentResult& r) {
  std::cout << r.requests_measured << ',' << r.rct.mean << ',' << r.rct.p50 << ','
            << r.rct.p95 << ',' << r.rct.p99 << ',' << r.rct.p999 << ','
            << r.mean_server_utilization << ',' << r.max_server_utilization << ','
            << r.net_messages << ',' << r.progress_messages << '\n';
}

/// The per-policy table of one point: percentiles, gain over FCFS (when
/// FCFS runs first) and server utilisation.
void print_policy_table(const std::vector<core::PolicyRun>& runs) {
  const double fcfs_mean =
      runs.front().policy == sched::Policy::kFcfs ? runs.front().result.rct.mean : 0;
  Table table{{"policy", "mean RCT", "p50", "p95", "p99", "p999", "vs fcfs",
               "util", "max util"}};
  for (const auto& [policy, r] : runs) {
    const double gain = core::gain_over_fcfs(fcfs_mean, r.rct.mean);
    table.add_row(
        {sched::to_string(policy), Table::fmt(r.rct.mean, 1),
         Table::fmt(r.rct.p50, 1), Table::fmt(r.rct.p95, 1),
         Table::fmt(r.rct.p99, 1), Table::fmt(r.rct.p999, 1),
         std::isnan(gain) ? "-" : Table::fmt_percent(gain),
         Table::fmt(r.mean_server_utilization, 3),
         Table::fmt(r.max_server_utilization, 3)});
  }
  table.print(std::cout);
}

/// --sweep and --experiment: every (point, policy) of the grid, fanned out
/// over a thread pool. All stdout output is deterministic (bit-identical
/// across --jobs values); the wall-clock line goes to stderr.
int run_grid(const experiments::Experiment& grid, const Flags& flags) {
  const auto jobs_flag = flags.get_int("jobs");
  const std::size_t jobs = jobs_flag <= 0 ? core::SweepRunner::default_jobs()
                                          : static_cast<std::size_t>(jobs_flag);
  core::SweepRunner runner;
  for (core::SweepPoint& point : experiments::sweep_points(grid))
    runner.add(std::move(point));

  // Wall-clock sweep timing for the operator's progress line only.
  const auto wall_start = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)
  const std::vector<core::SweepOutcome> outcomes = runner.run(jobs);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // NOLINT(das-no-wallclock)
                                    wall_start)
          .count();
  std::cerr << grid.name << ": " << outcomes.size() << " points, jobs=" << jobs
            << ", " << wall_seconds << " s\n";

  if (flags.get_string("format") == "csv") {
    std::cout << "experiment,point,policy," << kCsvColumns;
    for (const auto& o : outcomes) {
      std::cout << o.experiment << ',' << o.point << ','
                << sched::to_string(o.policy) << ',';
      print_csv_cells(o.result);
    }
  } else {
    for (const experiments::TableSpec& table : grid.tables) {
      std::cout << "\n### " << table.heading << "\n\n";
      if (!table.metric.empty()) {
        experiments::print_table(std::cout, grid, outcomes, table.metric);
        continue;
      }
      std::vector<core::PolicyRun> runs;
      for (const auto& o : outcomes) runs.push_back({o.policy, o.result});
      print_policy_table(runs);
    }
  }

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    core::write_bench_json(json_path, grid.name, outcomes);
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}

int run(int argc, char** argv) {
  Flags flags;
  flags.define("policy", "fcfs,rein-sbf,das",
               "comma-separated policy list, or 'all'");
  flags.define("servers", "32", "number of store servers");
  flags.define("clients", "8", "number of front-end clients");
  flags.define("keys-per-server", "1000", "keyspace size per server");
  flags.define("load", "0.7",
               "target utilisation; > 1 drives deliberate overload (E22)");
  flags.define("calibration", "average",
               "load calibration: 'average' capacity or 'hottest' server");
  flags.define("theta", "0", "Zipf key-popularity skew (0 = uniform)");
  flags.define("fanout", "geometric:0.125:128",
               "multiget fan-out spec (fixed:K, uniform:LO:HI, geometric:P:CAP, "
               "zipf:N:THETA, bimodal:S:L:P)");
  flags.define("value-size", "gpareto:1:250:0.35:65536",
               "value-size spec in bytes (constant:V, uniform:LO:HI, "
               "exponential:M, lognormal:M:S, gpareto:L:S:SH:CAP)");
  flags.define("op-overhead-us", "20", "fixed service cost per op (us)");
  flags.define("bytes-per-us", "50", "service transfer rate (bytes/us)");
  flags.define("net-latency-us", "5", "one-way network latency (us)");
  flags.define("replication", "1", "copies per key");
  flags.define("selection", "primary",
               "replica selection: primary | random | least-delay | tars | "
               "power-of-d | c3");
  flags.define("stragglers", "0", "fraction of servers at reduced speed");
  flags.define("straggler-speed", "0.5", "speed factor of straggler servers");
  flags.define("ring-vnodes", "0", "consistent-hash vnodes (0 = modulo)");
  flags.define("loss", "0", "per-message drop probability (needs --retry-ms > 0)");
  flags.define("retry-ms", "0", "retransmission timeout in ms (0 = off)");
  flags.define("backoff-cap-ms", "0",
               "cap on the backed-off retransmission timeout in ms (0 = none)");
  flags.define("retry-max-attempts", "0",
               "send attempts per op before giving up and counting the "
               "request as failed (0 = retry forever)");
  flags.define("suspicion-rtos", "3",
               "consecutive retry timeouts before a server is suspected and "
               "reads fail over to other replicas (0 = off)");
  flags.define("faults", "",
               "scripted fault plan, e.g. "
               "crash@50ms:s3,recover@80ms:s3,partition@20ms:c0-s1,"
               "heal@30ms:c0-s1,slow@10ms-40ms:s2:x0.25,lossburst@5ms-9ms:p0.3");
  flags.define("chaos-crashes", "0",
               "chaos generator: crash/recover windows to script randomly");
  flags.define("chaos-slowdowns", "0",
               "chaos generator: gray-failure slowdown windows to script");
  flags.define("chaos-partitions", "0",
               "chaos generator: client-server partition windows to script");
  flags.define("chaos-seed", "1", "seed of the chaos fault generator");
  flags.define("hedge-ms", "0",
               "hedged-read delay in ms (0 = off; needs --replication >= 2)");
  flags.define("queue-cap", "0",
               "bounded server queues: max ops queued per server (0 = off)");
  flags.define("overload-policy", "reject-new",
               "bounded-queue shed policy: reject-new | sojourn-drop");
  flags.define("sojourn-us", "0",
               "sojourn-drop threshold in us (0 derives 2x the deadline "
               "budget, else 10ms)");
  flags.define("deadline-ms", "0",
               "end-to-end request deadline budget in ms (0 = off)");
  flags.define("admission", "false",
               "client-side AIMD admission control driven by BUSY/expiry");
  flags.define("preemptive", "false",
               "preempt-resume service (oracle upper bound)");
  flags.define("write-fraction", "0",
               "fraction of requests that are write-all PUTs");
  flags.define("workload", "",
               "workload-registry spec for a single tenant: '+'-joined "
               "clauses (ycsb-a|b|c|f, mix:R:U:M, zipf:THETA, fanout:<dist>, "
               "size:<dist>, drift:PERIOD_US:STRIDE, "
               "storm:START:END:KEYS:SHARE:SEED, replay:PATH, name:LABEL, "
               "share:W); unset clauses inherit the cluster flags");
  flags.define("tenants", "",
               "';'-separated list of --workload specs, one tenant each, "
               "sharing the cluster (equal keyspace slices, arrival rate "
               "split by share:W)");
  flags.define("replay", "",
               "replay a recorded trace file (shorthand for "
               "--workload=replay:FILE)");
  flags.define("record", "",
               "record every generated operation as a CSV replay trace to this "
               "path (.csv); single --policy, no --sweep");
  flags.define("store", "synthetic",
               "service-time model: 'synthetic' (client-computed demand) or "
               "'lsm' (memtable/flush/compaction storage engine)");
  flags.define("lsm-memtable-kb", "64", "LSM memtable flush threshold (KB)");
  flags.define("lsm-compact-trigger", "2",
               "L0 runs that trigger a background compaction");
  flags.define("lsm-drain-bpus", "16",
               "background compaction drain rate (bytes/us)");
  flags.define("lsm-compact-slowdown", "0.6",
               "effective-speed factor while compacting, in (0,1]");
  flags.define("lsm-stall-kb", "256",
               "compaction debt (KB) at which writes start stalling");
  flags.define("lsm-stall-mult", "4",
               "write cost multiplier while stalled (>= 1)");
  flags.define("lsm-interference", "true",
               "false = compaction costs nothing and writes never stall (the "
               "E20 control arm; the flush/compaction state machine still runs)");
  flags.define("warmup-ms", "30", "warmup window (ms, excluded from metrics)");
  flags.define("measure-ms", "200", "measurement window (ms)");
  flags.define("seed", "42", "simulation seed");
  flags.define("audit-every", "0",
               "run the invariant audit every N dispatched events (0 = off)");
  flags.define("format", "table", "output: table | csv");
  flags.define("sweep", "false",
               "run a (load grid x policy) sweep instead of a single point");
  flags.define("jobs", "1",
               "grid worker threads (0 = hardware concurrency); results are "
               "bit-identical to --jobs=1");
  flags.define("sweep-loads", "0.3,0.5,0.6,0.7,0.8,0.9",
               "comma-separated target loads of the sweep grid (the E1 grid)");
  flags.define("sweep-selections", "",
               "comma-separated replica-selection modes added as a third "
               "sweep dimension (empty = just --selection); needs "
               "--replication >= 2");
  flags.define("experiment", "",
               "run a registered experiment grid by name (E1_load_mean ... "
               "E22_overload, see EXPERIMENTS.md) instead of a single point; "
               "the grid sets every flag but --jobs, --json and --format");
  flags.define("json", "",
               "write --sweep / --experiment results as BENCH-schema JSON to "
               "this path");
  flags.define("trace", "",
               "stream a Chrome trace-event JSON (Perfetto-loadable) of the "
               "run to this path; requires exactly one --policy, no --sweep");
  flags.define("trace-cap", "1000000",
               "maximum trace events written (overflow counted, not kept); "
               "needs --trace");
  flags.define("breakdown", "false",
               "print the exact per-component RCT attribution per policy "
               "(single-point runs only)");
  flags.define("help", "false", "show this help");

  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::cerr << error << "\n\n";
    flags.print_help(std::cerr, "dassim");
    return 2;
  }
  if (flags.get_bool("help")) {
    flags.print_help(std::cout, "dassim");
    return 0;
  }
  // Checked before anything runs: a typo must not cost a whole grid.
  const std::string format = flags.get_string("format");
  if (format != "csv" && format != "table") {
    std::cerr << "unknown --format: " << format << " (table | csv)\n";
    return 2;
  }
  // A flag the chosen mode does not read would silently run something other
  // than the command line says. A registered grid sets every knob itself; a
  // sweep takes its loads from --sweep-loads and prints no breakdown.
  const std::string experiment = flags.get_string("experiment");
  for (const std::string& name : flags.set_on_command_line()) {
    if (!experiment.empty() && name != "experiment" && name != "jobs" &&
        name != "json" && name != "format")
      throw std::invalid_argument("flag --" + name +
                                  ": --experiment runs a registered grid and "
                                  "reads only --jobs, --json and --format");
    if (flags.get_bool("sweep") && (name == "load" || name == "breakdown"))
      throw std::invalid_argument("flag --" + name + ": --sweep does not read it");
  }

  core::ClusterConfig cfg;
  cfg.num_servers = static_cast<std::size_t>(flags.get_count("servers"));
  cfg.num_clients = static_cast<std::size_t>(flags.get_count("clients"));
  cfg.keys_per_server = flags.get_count("keys-per-server");
  cfg.target_load = flags.get_double("load");
  const std::string calibration = flags.get_string("calibration");
  if (calibration == "average") {
    cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  } else if (calibration == "hottest") {
    cfg.load_calibration = core::LoadCalibration::kHottestServer;
  } else {
    std::cerr << "unknown --calibration: " << calibration << "\n";
    return 2;
  }
  cfg.zipf_theta = flags.get_double("theta");
  // A malformed distribution spec is a usage error naming its flag.
  std::string dist_flag = "fanout";
  try {
    cfg.fanout = workload::parse_int_dist(flags.get_string(dist_flag));
    dist_flag = "value-size";
    cfg.value_size_bytes = workload::parse_real_dist(flags.get_string(dist_flag));
  } catch (const std::logic_error& e) {
    std::cerr << "flag --" << dist_flag << ": " << e.what() << "\n";
    return 2;
  }
  cfg.per_op_overhead_us = flags.get_double("op-overhead-us");
  cfg.service_bytes_per_us = flags.get_double("bytes-per-us");
  cfg.net_latency_us = flags.get_double("net-latency-us");
  cfg.replication = static_cast<std::size_t>(flags.get_count("replication"));
  const std::string selection = flags.get_string("selection");
  if (!select::mode_from_string(selection, cfg.replica_selection)) {
    std::cerr << "unknown --selection: " << selection << "\n";
    return 2;
  }
  cfg.ring_vnodes = static_cast<std::size_t>(flags.get_count("ring-vnodes"));
  cfg.msg_loss_probability = flags.get_double("loss");
  cfg.retry_timeout_us = flags.get_double("retry-ms") * kMillisecond;
  cfg.retry_backoff_max_us = flags.get_double("backoff-cap-ms") * kMillisecond;
  cfg.retry_max_attempts =
      static_cast<std::uint32_t>(flags.get_count("retry-max-attempts"));
  cfg.suspicion_rto_threshold =
      static_cast<std::uint32_t>(flags.get_count("suspicion-rtos"));
  cfg.hedge_delay_us = flags.get_double("hedge-ms") * kMillisecond;
  cfg.overload.queue_cap = static_cast<std::size_t>(flags.get_count("queue-cap"));
  if (!overload::policy_from_string(flags.get_string("overload-policy"),
                                    cfg.overload.reject_policy)) {
    std::cerr << "unknown --overload-policy: "
              << flags.get_string("overload-policy") << "\n";
    return 2;
  }
  cfg.overload.sojourn_threshold_us = flags.get_double("sojourn-us");
  cfg.overload.deadline_budget_us = flags.get_double("deadline-ms") * kMillisecond;
  cfg.overload.admission = flags.get_bool("admission");
  cfg.preemptive_service = flags.get_bool("preemptive");
  cfg.write_fraction = flags.get_double("write-fraction");
  if (!core::store_model_from_string(flags.get_string("store"), cfg.store_model)) {
    std::cerr << "unknown --store: " << flags.get_string("store") << "\n";
    return 2;
  }
  cfg.lsm.memtable_bytes = flags.get_double("lsm-memtable-kb") * 1024.0;
  cfg.lsm.l0_compaction_trigger =
      static_cast<std::size_t>(flags.get_count("lsm-compact-trigger"));
  cfg.lsm.compaction_bytes_per_us = flags.get_double("lsm-drain-bpus");
  cfg.lsm.compaction_capacity_factor = flags.get_double("lsm-compact-slowdown");
  cfg.lsm.stall_debt_bytes = flags.get_double("lsm-stall-kb") * 1024.0;
  cfg.lsm.stall_write_multiplier = flags.get_double("lsm-stall-mult");
  cfg.lsm.interference = flags.get_bool("lsm-interference");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.audit_every_events = flags.get_count("audit-every");
  const double straggler_fraction = flags.get_double("stragglers");
  if (!(straggler_fraction >= 0 && straggler_fraction <= 1)) {
    std::cerr << "flag --stragglers: fraction of servers must be in [0, 1]\n";
    return 2;
  }
  if (straggler_fraction > 0) {
    cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
    const auto n = static_cast<std::size_t>(
        straggler_fraction * static_cast<double>(cfg.num_servers));
    const double speed = flags.get_double("straggler-speed");
    for (std::size_t i = 0; i < n && i < cfg.num_servers; ++i)
      cfg.server_speed_factors[i] = speed;
  }

  // Workload registry: --replay is sugar for --workload=replay:FILE; a
  // single --workload becomes a one-tenant list. Registry parse errors are
  // usage errors.
  try {
    std::string workload_spec = flags.get_string("workload");
    const std::string tenants_spec = flags.get_string("tenants");
    const std::string replay_path = flags.get_string("replay");
    if (!replay_path.empty()) {
      if (!workload_spec.empty() || !tenants_spec.empty()) {
        std::cerr << "--replay is shorthand for --workload=replay:FILE; give "
                     "only one of --replay / --workload / --tenants\n";
        return 2;
      }
      workload_spec = "replay:" + replay_path;
    }
    if (!workload_spec.empty() && !tenants_spec.empty()) {
      std::cerr << "--workload and --tenants are mutually exclusive\n";
      return 2;
    }
    if (!tenants_spec.empty()) {
      cfg.tenants = workload::parse_tenants(tenants_spec);
    } else if (!workload_spec.empty()) {
      cfg.tenants = {workload::parse_tenant(workload_spec)};
      if (cfg.tenants.front().name.empty()) cfg.tenants.front().name = "t0";
    }
  } catch (const std::logic_error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  core::RunWindow window;
  window.warmup_us = flags.get_double("warmup-ms") * kMillisecond;
  window.measure_us = flags.get_double("measure-ms") * kMillisecond;
  if (window.warmup_us < 0)
    throw std::invalid_argument("flag --warmup-ms must be >= 0");
  if (window.measure_us <= 0)
    throw std::invalid_argument("flag --measure-ms must be > 0");

  // Fault timeline: scripted spec and/or seeded chaos windows (appended, then
  // re-sorted so the combined plan stays time-ordered).
  try {
    const std::string fault_spec = flags.get_string("faults");
    if (!fault_spec.empty()) cfg.fault_plan = fault::parse_fault_plan(fault_spec);
    fault::ChaosOptions chaos;
    chaos.horizon_us = window.horizon();
    chaos.num_servers = static_cast<std::uint32_t>(cfg.num_servers);
    chaos.num_clients = static_cast<std::uint32_t>(cfg.num_clients);
    chaos.crashes = static_cast<std::uint32_t>(flags.get_count("chaos-crashes"));
    chaos.slowdowns = static_cast<std::uint32_t>(flags.get_count("chaos-slowdowns"));
    chaos.partitions = static_cast<std::uint32_t>(flags.get_count("chaos-partitions"));
    if (chaos.crashes + chaos.slowdowns + chaos.partitions > 0) {
      const fault::FaultPlan generated = fault::make_chaos_plan(
          chaos, static_cast<std::uint64_t>(flags.get_int("chaos-seed")));
      cfg.fault_plan.events.insert(cfg.fault_plan.events.end(),
                                   generated.events.begin(),
                                   generated.events.end());
      std::stable_sort(cfg.fault_plan.events.begin(), cfg.fault_plan.events.end(),
                       [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                         return a.at < b.at;
                       });
    }
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<sched::Policy> policies;
  try {
    policies = parse_policies(flags.get_string("policy"));
  } catch (const std::exception& e) {
    std::cerr << "flag --policy: " << e.what() << "\n";
    return 2;
  }

  const std::string trace_path = flags.get_string("trace");
  const std::string record_path = flags.get_string("record");
  if (trace_path.empty() && flags.set_on_command_line("trace-cap"))
    throw std::invalid_argument("flag --trace-cap: only --trace writes a trace");
  for (const char* flag : {"sweep-loads", "sweep-selections"}) {
    if (!flags.get_bool("sweep") && flags.set_on_command_line(flag))
      throw std::invalid_argument(std::string("flag --") + flag +
                                  ": only --sweep reads it");
  }
  if (!record_path.empty() && !record_path.ends_with(".csv"))
    throw std::invalid_argument("flag --record: the trace path must end in .csv");
  for (const char* flag : {"json", "trace", "record"}) {
    const std::string path = flags.get_string(flag);
    if (!path.empty() && !writable(path)) {
      std::cerr << "flag --" << flag << ": cannot write " << path << "\n";
      return 2;
    }
  }

  // A grid: the ad-hoc --sweep over the cluster flags, or a registered
  // experiment whose builder sets every knob itself.
  if (flags.get_bool("sweep") || !experiment.empty()) {
    if (!trace_path.empty() || !record_path.empty()) {
      std::cerr << (trace_path.empty() ? "--record" : "--trace")
                << " is incompatible with --sweep\n";
      return 2;
    }
    try {
      return run_grid(experiment.empty()
                          ? sweep_grid(cfg, window, policies, flags)
                          : experiments::build_experiment(experiment),
                      flags);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";  // malformed grid spec = usage error
      return 2;
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }
  if (!flags.get_string("json").empty()) {
    std::cerr << "flag --json: only --sweep and --experiment write JSON\n";
    return 2;
  }

  std::vector<core::PolicyRun> runs;
  if (!trace_path.empty() || !record_path.empty()) {
    // One observed run: the Chrome trace and the workload recording are
    // both observation-only, so either, or both, ride on the same cluster.
    if (policies.size() != 1) {
      std::cerr << (trace_path.empty() ? "--record" : "--trace")
                << " requires exactly one --policy\n";
      return 2;
    }
    cfg.policy = policies.front();
    std::ofstream trace_file;
    std::optional<trace::Tracer> tracer;
    if (!trace_path.empty()) {
      const auto cap = static_cast<std::size_t>(flags.get_count("trace-cap"));
      if (cap == 0) throw std::invalid_argument("flag --trace-cap must be > 0");
      trace_file.open(trace_path);
      if (!trace_file) throw std::runtime_error("cannot open trace output file: " + trace_path);
      tracer.emplace(trace_file, cap);
    }
    workload::ReplayTrace recorded;
    core::Cluster cluster{cfg, window, tracer ? &*tracer : nullptr};
    if (!record_path.empty()) cluster.set_workload_recorder(&recorded);
    runs.push_back({policies.front(), cluster.run()});
    if (tracer) {
      tracer->finish();
      std::cerr << "trace: " << tracer->retained() << " events retained, "
                << tracer->dropped() << " dropped (cap " << tracer->cap()
                << ") -> " << trace_path << "\n";
    }
    if (!record_path.empty()) {
      recorded.save(record_path);
      std::cerr << "recorded " << recorded.size() << " ops -> " << record_path
                << "\n";
    }
  } else {
    runs = core::compare_policies(cfg, policies, window);
  }
  if (format == "csv") {
    std::cout << "policy," << kCsvColumns;
    for (const auto& [policy, r] : runs) {
      std::cout << sched::to_string(policy) << ',';
      print_csv_cells(r);
    }
  } else {
    print_policy_table(runs);
  }

  // The blocks below are aligned tables, not CSV rows: under --format=csv
  // they go to stderr so stdout stays machine-readable.
  std::ostream& blocks = format == "csv" ? std::cerr : std::cout;

  // Exact RCT attribution: component means over the measurement window plus
  // the mechanism-activation counters (what the scheduler actually did).
  if (flags.get_bool("breakdown")) {
    experiments::print_block(blocks, "RCT breakdown (component means, us)", runs,
                             core::Block::kBreakdown);
    experiments::print_block(blocks, "mechanism counters", runs,
                             core::Block::kMechanism);
  }

  // Per-tenant accounting, shown whenever tenants are configured.
  if (!runs.empty() && !runs.front().result.tenants.empty())
    experiments::print_tenant_block(blocks, "per-tenant RCT", runs);

  // Graceful-degradation accounting whenever a fault plan ran; overload
  // accounting whenever any protection is on (goodput vs throughput is the
  // headline: how much settled work completed in time).
  if (!cfg.fault_plan.empty())
    experiments::print_block(blocks, "graceful degradation", runs,
                             core::Block::kDegradation);
  if (cfg.overload.enabled())
    experiments::print_block(blocks, "overload control", runs,
                             core::Block::kOverload);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed flag value is a usage error, like an unknown flag.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
