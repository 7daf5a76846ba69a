// dassim — run arbitrary DAS cluster experiments from the command line.
//
//   ./build/tools/dassim --policy=das --load=0.8 --servers=64
//   ./build/tools/dassim --policy=all --fanout=bimodal:2:32:0.2 --format=csv
//   ./build/tools/dassim --policy=das,fcfs --stragglers=0.25 --straggler-speed=0.5
//   ./build/tools/dassim --load=0.3,0.5,0.6,0.7,0.8,0.9 --jobs=4 --json=BENCH_e1.json
//   ./build/tools/dassim --experiment=E5_skew --jobs=4 --json=BENCH_E5_skew.json
//   ./build/tools/dassim --policy=das --trace=trace.json --breakdown
//   ./build/tools/dassim --policy=das --load=1.2 --queue-cap=64 --deadline-ms=20
//   ./build/tools/dassim --policy=das --load=1.2 --admission
//
// Every run is a grid of (point, policy) rows: a registered paper grid
// (--experiment, tools/experiments.hpp) or the ad-hoc grid "sweep" of
// --load x --selection x --policy over the cluster flags. The rows run
// across a thread pool (--jobs) with bit-identical-to-serial results, and
// one printer shows any grid: its tables (--format=csv emits one row per
// (point, policy) for plotting scripts), then the blocks the cluster flags
// ask for; --json persists the rows in the BENCH_<experiment>.json schema.
// --trace streams the full op lifecycle of a one-row grid as Chrome
// trace-event JSON (open in Perfetto), alone or alongside --record;
// --breakdown prints the exact per-component RCT attribution.
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
#include "core/sweep.hpp"
#include "experiments.hpp"
#include "fault/fault_plan.hpp"
#include "overload/overload.hpp"
#include "trace/tracer.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"
#include "workload/spec.hpp"

namespace {

using namespace das;

std::vector<sched::Policy> parse_policies(const std::string& spec) {
  if (spec == "all") return sched::all_policies();
  std::vector<sched::Policy> out;
  try {
    for (const std::string& name : parse::split(spec, ','))
      out.push_back(sched::policy_from_string(name));
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("flag --policy: ") + e.what());
  }
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

core::RunWindow run_window(const Flags& flags) {
  core::RunWindow window;
  window.warmup_us = flags.get_double("warmup-ms") * kMillisecond;
  window.measure_us = flags.get_double("measure-ms") * kMillisecond;
  if (window.warmup_us < 0)
    throw std::invalid_argument("flag --warmup-ms must be >= 0");
  if (window.measure_us <= 0)
    throw std::invalid_argument("flag --measure-ms must be > 0");
  return window;
}

/// The cluster every ad-hoc grid point shares: every cluster flag but the
/// grid's own --load and --selection. A malformed or out-of-range value
/// throws std::invalid_argument, a usage error.
core::ClusterConfig cluster_config(const Flags& flags, const core::RunWindow& window) {
  core::ClusterConfig cfg;
  cfg.num_servers = static_cast<std::size_t>(flags.get_count("servers"));
  cfg.num_clients = static_cast<std::size_t>(flags.get_count("clients"));
  cfg.keys_per_server = flags.get_count("keys-per-server");
  const std::string calibration = flags.get_string("calibration");
  if (calibration == "average") {
    cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  } else if (calibration == "hottest") {
    cfg.load_calibration = core::LoadCalibration::kHottestServer;
  } else {
    throw std::invalid_argument("unknown --calibration: " + calibration);
  }
  cfg.zipf_theta = flags.get_double("theta");
  // A malformed distribution or workload spec is a usage error naming its
  // flag; the parsers report one as any std::logic_error.
  std::string spec_flag = "fanout";
  try {
    cfg.fanout = workload::parse_int_dist(flags.get_string(spec_flag));
    spec_flag = "value-size";
    cfg.value_size_bytes = workload::parse_real_dist(flags.get_string(spec_flag));
    spec_flag = "workload";
    const std::string tenants = flags.get_string(spec_flag);
    if (!tenants.empty()) cfg.tenants = workload::parse_tenants(tenants);
  } catch (const std::logic_error& e) {
    throw std::invalid_argument("flag --" + spec_flag + ": " + e.what());
  }
  cfg.per_op_overhead_us = flags.get_double("op-overhead-us");
  cfg.service_bytes_per_us = flags.get_double("bytes-per-us");
  cfg.net_latency_us = flags.get_double("net-latency-us");
  cfg.replication = static_cast<std::size_t>(flags.get_count("replication"));
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
    throw std::invalid_argument("unknown --overload-policy: " +
                                flags.get_string("overload-policy"));
  }
  cfg.overload.sojourn_threshold_us = flags.get_double("sojourn-us");
  cfg.overload.deadline_budget_us = flags.get_double("deadline-ms") * kMillisecond;
  cfg.overload.admission = flags.get_bool("admission");
  cfg.preemptive_service = flags.get_bool("preemptive");
  cfg.write_fraction = flags.get_double("write-fraction");
  if (!core::store_model_from_string(flags.get_string("store"), cfg.store_model))
    throw std::invalid_argument("unknown --store: " + flags.get_string("store"));
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
    throw std::invalid_argument(
        "flag --stragglers: fraction of servers must be in [0, 1]");
  }
  if (straggler_fraction > 0) {
    cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
    const auto n = static_cast<std::size_t>(
        straggler_fraction * static_cast<double>(cfg.num_servers));
    const double speed = flags.get_double("straggler-speed");
    for (std::size_t i = 0; i < n && i < cfg.num_servers; ++i)
      cfg.server_speed_factors[i] = speed;
  }

  // Fault timeline: scripted spec and/or seeded chaos windows (appended, then
  // re-sorted so the combined plan stays time-ordered).
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
                                 generated.events.begin(), generated.events.end());
    std::stable_sort(cfg.fault_plan.events.begin(), cfg.fault_plan.events.end(),
                     [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                       return a.at < b.at;
                     });
  }
  return cfg;
}

/// Which flags each kind of run reads, in one place: a flag the run does not
/// read would silently run something other than the command line says.
/// `rows` is the grid's (point, policy) count.
void check_modes(const Flags& flags, std::size_t rows) {
  const auto reject = [](const std::string& flag, const std::string& why) {
    throw std::invalid_argument("flag --" + flag + ": " + why);
  };
  if (!flags.get_string("experiment").empty()) {
    for (const std::string& name : flags.set_on_command_line()) {
      if (name != "experiment" && name != "jobs" && name != "json" && name != "format")
        reject(name,
               "--experiment runs a registered grid and reads only --jobs, "
               "--json and --format");
    }
  }
  if (flags.get_string("trace").empty() && flags.set_on_command_line("trace-cap"))
    reject("trace-cap", "only --trace writes a trace");
  for (const char* flag : {"trace", "record"}) {
    if (!flags.get_string(flag).empty() && rows != 1)
      reject(flag, "observes one run; give one --load, one --selection and one "
                   "--policy (this grid has " + std::to_string(rows) + " rows)");
  }
}

/// The one row of a traced or recorded grid, on a cluster built here so the
/// tracer and the recorder can attach. Both only observe: the result equals
/// the row's untraced run.
core::SweepOutcome run_observed(const experiments::Experiment& grid,
                                const Flags& flags) {
  const experiments::GridPoint& point = grid.points.front();
  core::ClusterConfig cfg = point.config;
  cfg.policy = grid.policies.front();
  const std::string trace_path = flags.get_string("trace");
  const std::string record_path = flags.get_string("record");
  std::ofstream trace_file;
  std::optional<trace::Tracer> tracer;
  if (!trace_path.empty()) {
    const auto cap = static_cast<std::size_t>(flags.get_count("trace-cap"));
    if (cap == 0) throw std::invalid_argument("flag --trace-cap must be > 0");
    trace_file.open(trace_path);
    if (!trace_file)
      throw std::runtime_error("cannot open trace output file: " + trace_path);
    tracer.emplace(trace_file, cap);
  }
  workload::ReplayTrace recorded;
  core::Cluster cluster{cfg, point.window, tracer ? &*tracer : nullptr};
  if (!record_path.empty()) cluster.set_workload_recorder(&recorded);
  core::SweepOutcome out{grid.name, point.label, cfg.policy, cfg.seed, cluster.run()};
  if (tracer) {
    tracer->finish();
    std::cerr << "trace: " << tracer->retained() << " events retained, "
              << tracer->dropped() << " dropped (cap " << tracer->cap()
              << ") -> " << trace_path << "\n";
  }
  if (!record_path.empty()) {
    recorded.save(record_path);
    std::cerr << "recorded " << recorded.size() << " ops -> " << record_path << "\n";
  }
  return out;
}

/// The per-policy table of a one-point grid: percentiles, gain over FCFS
/// (when FCFS runs first) and server utilisation.
void print_policy_table(const std::vector<core::SweepOutcome>& outcomes) {
  const double fcfs_mean = outcomes.front().policy == sched::Policy::kFcfs
                               ? outcomes.front().result.rct.mean
                               : 0;
  Table table{{"policy", "mean RCT", "p50", "p95", "p99", "p999", "vs fcfs",
               "util", "max util"}};
  for (const core::SweepOutcome& o : outcomes) {
    const core::ExperimentResult& r = o.result;
    const double gain = core::gain_over_fcfs(fcfs_mean, r.rct.mean);
    table.add_row(
        {sched::to_string(o.policy), Table::fmt(r.rct.mean, 1),
         Table::fmt(r.rct.p50, 1), Table::fmt(r.rct.p95, 1),
         Table::fmt(r.rct.p99, 1), Table::fmt(r.rct.p999, 1),
         std::isnan(gain) ? "-" : Table::fmt_percent(gain),
         Table::fmt(r.mean_server_utilization, 3),
         Table::fmt(r.max_server_utilization, 3)});
  }
  table.print(std::cout);
}

/// Prints a finished grid: its tables, or under `csv` one row per (point,
/// policy); then the blocks that `asked`, the ad-hoc cluster, and
/// `breakdown` ask for. Every stdout byte is deterministic (bit-identical
/// across --jobs values).
void print_results(const experiments::Experiment& grid,
                   const std::vector<core::SweepOutcome>& outcomes, bool csv,
                   const core::ClusterConfig& asked, bool breakdown) {
  if (csv) {
    std::cout << "experiment,point,policy,requests,mean_rct_us,p50_us,p95_us,"
                 "p99_us,p999_us,mean_util,max_util,net_msgs,progress_msgs\n";
    for (const core::SweepOutcome& o : outcomes) {
      const core::ExperimentResult& r = o.result;
      std::cout << o.experiment << ',' << o.point << ',' << sched::to_string(o.policy)
                << ',' << r.requests_measured << ',' << r.rct.mean << ','
                << r.rct.p50 << ',' << r.rct.p95 << ',' << r.rct.p99 << ','
                << r.rct.p999 << ',' << r.mean_server_utilization << ','
                << r.max_server_utilization << ',' << r.net_messages << ','
                << r.progress_messages << '\n';
    }
  } else {
    for (const experiments::TableSpec& table : grid.tables) {
      std::cout << "\n### " << table.heading << "\n\n";
      if (table.metric.empty()) {
        print_policy_table(outcomes);
      } else {
        experiments::print_table(std::cout, grid, outcomes, table.metric);
      }
    }
  }

  // The blocks are aligned tables, not CSV rows: under --format=csv they go
  // to stderr so stdout stays machine-readable.
  std::ostream& blocks = csv ? std::cerr : std::cout;
  // Exact RCT attribution: component means over the measurement window plus
  // the mechanism-activation counters (what the scheduler actually did).
  if (breakdown) {
    experiments::print_block(blocks, "RCT breakdown (component means, us)",
                             outcomes, core::Block::kBreakdown);
    experiments::print_block(blocks, "mechanism counters", outcomes,
                             core::Block::kMechanism);
  }
  // Per-tenant accounting whenever tenants are configured; graceful
  // degradation whenever a fault plan ran; overload accounting whenever any
  // protection is on (goodput vs throughput is the headline: how much
  // settled work completed in time).
  if (!asked.tenants.empty())
    experiments::print_tenant_block(blocks, "per-tenant RCT", outcomes);
  if (!asked.fault_plan.empty())
    experiments::print_block(blocks, "graceful degradation", outcomes,
                             core::Block::kDegradation);
  if (asked.overload.enabled())
    experiments::print_block(blocks, "overload control", outcomes,
                             core::Block::kOverload);
}

int run(int argc, char** argv) {
  Flags flags;
  flags.define("policy", "fcfs,rein-sbf,das",
               "comma-separated policy list, or 'all'");
  flags.define("servers", "32", "number of store servers");
  flags.define("clients", "8", "number of front-end clients");
  flags.define("keys-per-server", "1000", "keyspace size per server");
  flags.define("load", "0.7",
               "comma-separated target utilisations, one grid point each; "
               "> 1 drives deliberate overload (E22)");
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
               "comma-separated replica-selection modes, one grid point each: "
               "primary | random | least-delay | tars | power-of-d | c3 "
               "(several need --replication >= 2)");
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
               "';'-separated tenant specs sharing the cluster (equal keyspace "
               "slices, arrival rate split by share:W), each '+'-joined "
               "clauses (ycsb-a|b|c|f, mix:R:U:M, zipf:THETA, fanout:<dist>, "
               "size:<dist>, drift:PERIOD_US:STRIDE, "
               "storm:START:END:KEYS:SHARE:SEED, replay:FILE, name:LABEL, "
               "share:W); unset clauses inherit the cluster flags");
  flags.define("record", "",
               "record every generated operation as a CSV replay trace to this "
               "path (.csv; replay it with --workload=replay:FILE); needs a "
               "one-row grid");
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
  flags.define("jobs", "1",
               "grid worker threads (0 = hardware concurrency); results are "
               "bit-identical to --jobs=1");
  flags.define("experiment", "",
               "run a registered experiment grid by name (E1_load_mean ... "
               "E22_overload, see EXPERIMENTS.md) instead of the ad-hoc "
               "--load x --selection x --policy grid; the grid sets every "
               "flag but --jobs, --json and --format");
  flags.define("json", "", "write the grid's rows as BENCH-schema JSON to this path");
  flags.define("trace", "",
               "stream a Chrome trace-event JSON (Perfetto-loadable) of the "
               "run to this path; needs a one-row grid");
  flags.define("trace-cap", "1000000",
               "maximum trace events written (overflow counted, not kept); "
               "needs --trace");
  flags.define("breakdown", "false",
               "print the exact per-component RCT attribution per (point, "
               "policy)");
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
  // Every usage error below is raised before any row runs: a typo must not
  // cost a whole grid.
  const std::string format = flags.get_string("format");
  if (format != "csv" && format != "table")
    throw std::invalid_argument("unknown --format: " + format + " (table | csv)");

  // Under --experiment no cluster flag may be set (check_modes), so `base`
  // is the flag defaults and asks for no block.
  const std::string experiment = flags.get_string("experiment");
  const core::RunWindow window = run_window(flags);
  const core::ClusterConfig base = cluster_config(flags, window);
  const experiments::Experiment grid =
      experiment.empty()
          ? experiments::sweep_grid(base, window,
                                    parse_policies(flags.get_string("policy")),
                                    flags.get_string("load"),
                                    flags.get_string("selection"))
          : experiments::build_experiment(experiment);
  check_modes(flags, grid.points.size() * grid.policies.size());
  for (const experiments::GridPoint& point : grid.points) point.config.validate();

  const std::string record_path = flags.get_string("record");
  if (!record_path.empty() && !record_path.ends_with(".csv"))
    throw std::invalid_argument("flag --record: the trace path must end in .csv");
  for (const char* flag : {"json", "trace", "record"}) {
    const std::string path = flags.get_string(flag);
    if (!path.empty() && !writable(path)) {
      throw std::invalid_argument(std::string("flag --") + flag +
                                  ": cannot write " + path);
    }
  }

  const bool observed = !flags.get_string("trace").empty() || !record_path.empty();
  const auto jobs_flag = flags.get_int("jobs");
  const std::size_t jobs = observed       ? 1
                           : jobs_flag <= 0 ? core::SweepRunner::default_jobs()
                                            : static_cast<std::size_t>(jobs_flag);
  // Wall-clock grid timing for the operator's progress line only.
  const auto wall_start = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)
  std::vector<core::SweepOutcome> outcomes;
  if (observed) {
    outcomes.push_back(run_observed(grid, flags));
  } else {
    core::SweepRunner runner;
    for (core::SweepPoint& point : experiments::sweep_points(grid))
      runner.add(std::move(point));
    outcomes = runner.run(jobs);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // NOLINT(das-no-wallclock)
                                    wall_start)
          .count();
  std::cerr << grid.name << ": " << outcomes.size() << " points, jobs=" << jobs
            << ", " << wall_seconds << " s\n";

  print_results(grid, outcomes, format == "csv", base, flags.get_bool("breakdown"));
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    core::write_bench_json(json_path, grid.name, outcomes);
    std::cerr << "wrote " << json_path << "\n";
  }
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
