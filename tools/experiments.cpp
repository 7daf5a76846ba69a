#include "experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/distributions.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "fault/fault_plan.hpp"
#include "select/selector.hpp"
#include "workload/rate_function.hpp"
#include "workload/registry.hpp"

namespace das::experiments {

namespace {

using sched::Policy;

/// The evaluation's default cluster: 32 servers, open-loop Poisson multigets
/// with geometric fan-out (mean 8), ETC-like value sizes, uniform key
/// popularity, load expressed as fraction of aggregate capacity.
core::ClusterConfig eval_config() {
  core::ClusterConfig cfg;
  cfg.num_servers = 32;
  cfg.num_clients = 8;
  cfg.keys_per_server = 1000;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  cfg.fanout = make_geometric(0.125, 128);  // mean 8, heavy tail
  cfg.target_load = 0.7;
  cfg.seed = 20260705;
  return cfg;
}

/// Default measurement window: 30ms warmup + 200ms measured.
core::RunWindow eval_window() {
  core::RunWindow w;
  w.warmup_us = 30.0 * kMillisecond;
  w.measure_us = 200.0 * kMillisecond;
  return w;
}

/// The paper-table policy set: fcfs, sjf, req-srpt, rein-sbf, das.
std::vector<Policy> headline_policies() {
  return {Policy::kFcfs, Policy::kSjf, Policy::kReqSrpt, Policy::kReinSbf,
          Policy::kDas};
}

/// FCFS against the two feedback-driven schedulers.
std::vector<Policy> fcfs_rein_das() {
  return {Policy::kFcfs, Policy::kReinSbf, Policy::kDas};
}

// E1 — Mean request completion time vs system load (the paper's headline
// figure). DAS should sit 15-50% below FCFS and below Rein-SBF throughout.
Experiment e1_load_mean() {
  Experiment e{"E1_load_mean", {}, headline_policies(),
               {{"Mean RCT vs load", "mean_rct_us"}}};
  auto cfg = eval_config();
  for (const double load : {0.3, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    cfg.target_load = load;
    e.points.push_back({"load=" + Table::fmt(load, 1), cfg, eval_window()});
  }
  return e;
}

// E2 — Tail (p99) request completion time vs system load. SRPT-style
// policies trade a little tail for a lot of mean; the aging bound keeps the
// DAS tail close to FCFS.
Experiment e2_load_tail() {
  Experiment e{"E2_load_tail", {}, headline_policies(),
               {{"p99 RCT vs load", "p99_us"}, {"p999 RCT vs load", "p999_us"}}};
  auto cfg = eval_config();
  for (const double load : {0.5, 0.7, 0.9}) {
    cfg.target_load = load;
    e.points.push_back({"load=" + Table::fmt(load, 1), cfg, eval_window()});
  }
  return e;
}

// E3 — Mean RCT vs multiget fan-out (fixed k per request) at load 0.7.
// The fork-join penalty grows with k; request-aware policies claw it back.
Experiment e3_fanout() {
  Experiment e{"E3_fanout", {}, headline_policies(),
               {{"Mean RCT vs fan-out", "mean_rct_us"}}};
  auto cfg = eval_config();
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    cfg.fanout = make_fixed_int(k);
    e.points.push_back({"k=" + std::to_string(k), cfg, eval_window()});
  }
  return e;
}

// E4 — Mean RCT across multiget fan-out distribution families (same mean
// fan-out of 8 where the family allows, increasing variance). The gain of
// request-aware scheduling grows with fan-out variance.
Experiment e4_fanout_dist() {
  Experiment e{"E4_fanout_dist", {}, headline_policies(),
               {{"Mean RCT by fan-out family", "mean_rct_us"},
                {"p99 RCT by fan-out family", "p99_us"}}};
  auto cfg = eval_config();
  const std::pair<const char*, IntDistPtr> families[] = {
      {"fixed8", make_fixed_int(8)},
      {"uniform1-15", make_uniform_int(1, 15)},
      {"geometric8", make_geometric(0.125, 128)},
      {"bimodal2-32", make_bimodal(2, 32, 0.2)},
      {"zipf64", make_zipf_int(64, 1.1)},
  };
  for (const auto& [name, fanout] : families) {
    cfg.fanout = fanout;
    e.points.push_back({name, cfg, eval_window()});
  }
  return e;
}

// E5 — Mean RCT vs key-popularity skew (Zipf theta). Load is calibrated to
// the HOTTEST server so every point stays stable; higher skew concentrates
// queueing on hot servers, where scheduling matters most.
Experiment e5_skew() {
  Experiment e{"E5_skew", {}, headline_policies(),
               {{"Mean RCT vs key skew (hottest-server load 0.75)", "mean_rct_us"},
                {"Mean server utilisation (load concentrates)", "mean_util"}}};
  auto cfg = eval_config();
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = 0.75;
  for (const double theta : {0.0, 0.5, 0.9, 0.99, 1.2}) {
    cfg.zipf_theta = theta;
    e.points.push_back({"theta=" + Table::fmt(theta, 2), cfg, eval_window()});
  }
  return e;
}

// E6 — Mean RCT vs fraction of half-speed straggler servers. Rein's
// size-based bottleneck ranking cannot see that a server is slow; DAS's
// adaptive per-server speed estimates can (compare das vs das-na).
Experiment e6_hetero() {
  Experiment e{"E6_hetero", {}, headline_policies(),
               {{"Mean RCT vs straggler fraction", "mean_rct_us"},
                {"p99 RCT vs straggler fraction", "p99_us"}}};
  e.policies.push_back(Policy::kDasNoAdapt);
  auto cfg = eval_config();
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = 0.75;
  for (const int slow_pct : {0, 12, 25, 50}) {
    cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
    const std::size_t slow =
        cfg.num_servers * static_cast<std::size_t>(slow_pct) / 100;
    for (std::size_t i = 0; i < slow; ++i) cfg.server_speed_factors[i] = 0.5;
    e.points.push_back({"slow=" + std::to_string(slow_pct) + "%", cfg, eval_window()});
  }
  return e;
}

// E7 — Time-varying server performance and load (the "adaptive" claim).
// Part A: every server's speed follows an independent two-state Markov
// fluctuation (fast 1.0 / slow 0.4). Part B: sinusoidal arrival-rate swing.
// DAS's estimators track both; DAS-NA (adaptivity off) loses the gain.
Experiment e7_timevary() {
  Experiment e{"E7_timevary", {},
               {Policy::kFcfs, Policy::kReinSbf, Policy::kDas,
                Policy::kDasNoAdapt, Policy::kDasNoDefer},
               {{"Mean RCT under time-varying conditions", "mean_rct_us"},
                {"p99 RCT under time-varying conditions", "p99_us"}}};
  const auto window = eval_window();
  {
    auto cfg = eval_config();
    cfg.load_calibration = core::LoadCalibration::kHottestServer;
    cfg.target_load = 0.75;
    for (const double dwell_ms : {2.0, 10.0, 50.0}) {
      cfg.speed_profiles.clear();
      for (std::size_t s = 0; s < cfg.num_servers; ++s) {
        cfg.speed_profiles.push_back(workload::make_markov_two_state(
            1.0, 0.4, dwell_ms * kMillisecond, dwell_ms * kMillisecond,
            window.horizon(), 0xD1CE + s));
      }
      e.points.push_back(
          {"speed_dwell=" + Table::fmt(dwell_ms, 0) + "ms", cfg, window});
    }
  }
  {
    auto cfg = eval_config();
    cfg.target_load = 0.6;  // swings up to ~0.9 at the sinusoid peak
    cfg.load_profile =
        workload::make_sinusoidal_rate(1.0, 0.5, 50.0 * kMillisecond);
    e.points.push_back({"sinusoidal_load", cfg, window});
  }
  return e;
}

// E8 — Mean RCT vs cluster size at constant per-server load. DAS is fully
// distributed (all state rides on messages), so its gain should be flat in
// the number of servers.
Experiment e8_scale() {
  Experiment e{"E8_scale", {}, headline_policies(),
               {{"Mean RCT vs cluster size", "mean_rct_us"}}};
  auto cfg = eval_config();
  auto window = eval_window();
  window.measure_us = 120.0 * kMillisecond;  // larger clusters, same events
  for (const std::size_t n : {16u, 32u, 64u, 128u}) {
    cfg.num_servers = n;
    cfg.num_clients = std::max<std::size_t>(4, n / 8);
    e.points.push_back({"servers=" + std::to_string(n), cfg, window});
  }
  return e;
}

// E9 — Mean RCT across value-size distributions with matched means. Size
// variance is SJF's only signal; request-aware policies exploit it through
// the demand tags. Per-op overhead is reduced so transfer time dominates.
Experiment e9_valuesize() {
  Experiment e{"E9_valuesize", {}, headline_policies(),
               {{"Mean RCT by value-size family", "mean_rct_us"},
                {"p99 RCT by value-size family", "p99_us"}}};
  auto cfg = eval_config();
  cfg.per_op_overhead_us = 5.0;
  const std::pair<const char*, RealDistPtr> families[] = {
      {"fixed385B", make_constant(385.0)},
      {"uniform10-760B", make_uniform_real(10.0, 760.0)},
      {"etc_pareto", make_generalized_pareto(1.0, 250.0, 0.35, 64 * 1024.0)},
      {"lognormal_s1.5", make_lognormal_mean(385.0, 1.5)},
  };
  for (const auto& [name, sizes] : families) {
    cfg.value_size_bytes = sizes;
    e.points.push_back({name, cfg, eval_window()});
  }
  return e;
}

// E10 — The paper's headline summary table: every policy at the default
// operating point (load 0.7, geometric fan-out, ETC sizes), mean/median and
// tail percentiles, the gain over FCFS and server utilisation.
Experiment e10_summary() {
  Experiment e{"E10_summary", {},
               {Policy::kFcfs, Policy::kRandom, Policy::kSjf, Policy::kEdf,
                Policy::kReqSrpt, Policy::kReinSbf, Policy::kDas},
               {{"E10 — Summary at load 0.7 (RCT in us)", ""}}};
  e.points.push_back({"load=0.7", eval_config(), eval_window()});
  return e;
}

// E11 — Ablation study over load: which DAS mechanism buys what. das-na
// (no adaptivity), das-nd (no LRPT-last deferral), das-noaging (no
// starvation bound), das-crit (critical-path key instead of total
// remaining); req-srpt shown as the bare-SRPT reference.
Experiment e11_ablation() {
  Experiment e{"E11_ablation", {},
               {Policy::kFcfs, Policy::kDas, Policy::kDasNoAdapt,
                Policy::kDasNoDefer, Policy::kDasNoAging, Policy::kDasCritical,
                Policy::kReqSrpt},
               {{"Ablations — mean RCT", "mean_rct_us"},
                {"Ablations — p99 RCT", "p99_us"},
                {"Ablations — progress messages", "progress_messages"},
                {"Ablations — ops deferred (LRPT-last activations)",
                 "ops_deferred"},
                {"Ablations — ops aged (starvation-bound activations)",
                 "ops_aged"},
                {"Ablations — reranks applied (progress re-keying)", "reranks_applied"},
                {"Ablations — mean deferred wait (us, RCT breakdown)",
                 "deferred_wait_us"}}};
  auto cfg = eval_config();
  for (const double load : {0.5, 0.7, 0.85}) {
    cfg.target_load = load;
    e.points.push_back({"load=" + Table::fmt(load, 2), cfg, eval_window()});
  }
  return e;
}

// E13 (extension) — Replication and replica selection. The paper's future-
// work direction: with R copies per key, a client can both choose WHERE to
// send an operation (replica selection) and let DAS decide WHEN it runs.
// Compares primary / random / least-delay (C3-style) selection under FCFS
// and DAS, with skewed popularity so replica choice actually matters.
Experiment e13_replication() {
  Experiment e{"E13_replication", {}, {Policy::kFcfs, Policy::kDas},
               {{"Mean RCT by replication scheme", "mean_rct_us"},
                {"p99 RCT by replication scheme", "p99_us"},
                {"Max server utilisation", "max_util"}}};
  auto cfg = eval_config();
  cfg.zipf_theta = 0.9;
  // Average-capacity calibration keeps the arrival rate IDENTICAL across all
  // rows (it depends only on total demand), so schemes are comparable. At
  // this skew the hottest server runs near saturation with primary-only
  // reads — exactly the regime replication is meant to fix.
  cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.45;
  cfg.ring_vnodes = 128;  // realistic placement for replica walks
  const auto window = eval_window();

  cfg.replication = 1;
  e.points.push_back({"R=1", cfg, window});
  for (const std::size_t r : {2u, 3u}) {
    cfg.replication = r;
    const std::string prefix = "R=" + std::to_string(r);
    cfg.replica_selection = core::ReplicaSelection::kPrimary;
    e.points.push_back({prefix + "/primary", cfg, window});
    cfg.replica_selection = core::ReplicaSelection::kRandom;
    e.points.push_back({prefix + "/random", cfg, window});
    cfg.replica_selection = core::ReplicaSelection::kLeastDelay;
    e.points.push_back({prefix + "/least-delay", cfg, window});
  }
  return e;
}

// E14 (extension) — Robustness to message loss. Gets are idempotent, so
// recovery is client-side retransmission with exponential backoff (2ms base
// RTO). Loss mostly costs the tail (one RTO per lost op); the scheduling
// gain in the mean is expected to survive loss intact.
Experiment e14_loss() {
  Experiment e{"E14_loss", {}, fcfs_rein_das(),
               {{"Mean RCT vs message-loss rate", "mean_rct_us"},
                {"p999 RCT vs message-loss rate", "p999_us"}}};
  auto cfg = eval_config();
  cfg.retry_timeout_us = 2.0 * kMillisecond;
  for (const double loss : {0.0, 0.001, 0.01, 0.05}) {
    cfg.msg_loss_probability = loss;
    e.points.push_back({"loss=" + Table::fmt(loss * 100, 1) + "%", cfg, eval_window()});
  }
  return e;
}

// E15 (extension) — Is non-preemptive service a real limitation? The paper
// (like production stores) serves operations to completion. This grid
// quantifies what preempt-resume service would buy: a large win in the
// classic single-key setting (textbook SRPT), but NOT in the fork-join
// multiget setting, where preempting on request totals postpones
// nearly-finished operations that would have completed their requests.
Experiment e15_preemption() {
  Experiment e{"E15_preemption", {},
               {Policy::kFcfs, Policy::kReqSrpt, Policy::kDas},
               {{"Mean RCT: preemption ablation", "mean_rct_us"},
                {"p99 RCT: preemption ablation", "p99_us"}}};
  const auto window = eval_window();
  {
    // Classic M/G/1-flavoured point: fan-out 1, heavy-tailed sizes.
    auto cfg = eval_config();
    cfg.fanout = make_fixed_int(1);
    cfg.per_op_overhead_us = 2.0;
    cfg.value_size_bytes = make_lognormal_mean(1000.0, 1.5);
    cfg.target_load = 0.8;
    cfg.preemptive_service = false;
    e.points.push_back({"fanout1/run-to-completion", cfg, window});
    cfg.preemptive_service = true;
    e.points.push_back({"fanout1/preempt-resume", cfg, window});
  }
  {
    // Fork-join point: the paper's default multiget workload.
    auto cfg = eval_config();
    cfg.target_load = 0.8;
    cfg.preemptive_service = false;
    e.points.push_back({"multiget/run-to-completion", cfg, window});
    cfg.preemptive_service = true;
    e.points.push_back({"multiget/preempt-resume", cfg, window});
  }
  return e;
}

// E16 (extension) — Hedged reads vs scheduling: two tail-cutting techniques
// compared and composed. A cluster with 25% half-speed stragglers and R=2:
// hedging duplicates slow ops to the other replica, DAS re-orders queues.
// The interesting question is whether they are substitutes or complements.
Experiment e16_hedging() {
  Experiment e{"E16_hedging", {}, {Policy::kFcfs, Policy::kDas},
               {{"Mean RCT with hedged reads", "mean_rct_us"},
                {"p99 RCT with hedged reads", "p99_us"},
                {"p999 RCT with hedged reads", "p999_us"}}};
  auto cfg = eval_config();
  cfg.ring_vnodes = 128;
  cfg.replication = 2;
  cfg.replica_selection = core::ReplicaSelection::kPrimary;
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = 0.7;
  cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
  for (std::size_t i = 0; i < cfg.num_servers / 4; ++i)
    cfg.server_speed_factors[i] = 0.5;
  for (const double hedge_ms : {0.0, 0.2, 0.5, 2.0}) {
    cfg.hedge_delay_us = hedge_ms * kMillisecond;
    const std::string label =
        hedge_ms == 0 ? "no-hedge" : "hedge=" + Table::fmt(hedge_ms, 1) + "ms";
    e.points.push_back({label, cfg, eval_window()});
  }
  return e;
}

// E17 (extension) — Read/write mix. Writes are single-key write-all PUTs
// (R=2 here), reads are multigets. Write ops enter the same per-server
// queues, so the schedulers order them too; the question is whether the
// multiget RCT gain survives write traffic in the queues.
Experiment e17_write_mix() {
  Experiment e{"E17_write_mix", {}, headline_policies(),
               {{"Mean RCT vs write fraction", "mean_rct_us"},
                {"p99 RCT vs write fraction", "p99_us"}}};
  auto cfg = eval_config();
  cfg.ring_vnodes = 128;
  cfg.replication = 2;
  for (const double w : {0.0, 0.05, 0.2, 0.5}) {
    cfg.write_fraction = w;
    e.points.push_back({"writes=" + Table::fmt(w * 100, 0) + "%", cfg, eval_window()});
  }
  return e;
}

// E18 (extension) — Faults & graceful degradation. Replication 2 with
// least-delay selection, 2ms retransmission RTO (capped exponential backoff)
// and timeout-based suspicion, so a crashed, partitioned or gray-failing
// server is detected from consecutive RTOs and reads fail over to the
// surviving replica. Every request still completes (availability stays 1.0);
// what the fault costs is tail latency, and the question is how much of the
// scheduling gain survives each fault shape.
Experiment e18_faults() {
  Experiment e{"E18_faults", {}, fcfs_rein_das(),
               {{"Mean RCT vs fault scenario", "mean_rct_us"},
                {"p999 RCT vs fault scenario", "p999_us"},
                {"Availability vs fault scenario", "availability"},
                {"Ops failed over vs fault scenario", "ops_failed_over"}}};
  auto cfg = eval_config();
  cfg.replication = 2;
  cfg.replica_selection = core::ReplicaSelection::kLeastDelay;
  cfg.retry_timeout_us = 2.0 * kMillisecond;
  cfg.retry_backoff_max_us = 16.0 * kMillisecond;
  const auto window = eval_window();

  // All fault windows sit inside the 200ms measurement window (warmup ends
  // at 30ms), so the degradation they cause is fully observed.
  const std::pair<const char*, const char*> scenarios[] = {
      {"none", ""},
      {"crash", "crash@80ms:s3,recover@150ms:s3"},
      {"gray", "slow@60ms-180ms:s2:x0.25"},
      {"partition", "partition@60ms:c0-s1,heal@130ms:c0-s1"},
  };
  for (const auto& [name, spec] : scenarios) {
    cfg.fault_plan =
        spec[0] == '\0' ? fault::FaultPlan{} : fault::parse_fault_plan(spec);
    e.points.push_back({std::string("fault=") + name, cfg, window});
  }

  // A denser randomized schedule from the chaos generator: two crash
  // windows, a slowdown and a partition, deterministically scripted from the
  // seed so the point is reproducible.
  fault::ChaosOptions chaos;
  chaos.horizon_us = window.horizon();
  chaos.num_servers = static_cast<std::uint32_t>(cfg.num_servers);
  chaos.num_clients = static_cast<std::uint32_t>(cfg.num_clients);
  chaos.crashes = 2;
  chaos.slowdowns = 1;
  chaos.partitions = 1;
  cfg.fault_plan = fault::make_chaos_plan(chaos, 18);
  e.points.push_back({"fault=chaos", cfg, window});
  return e;
}

// E19 (extension) — Replica selection × scheduling, the full cross. The
// pluggable selector layer makes replica selection a first-class policy
// axis; this grid runs every mode (primary / random / least-delay / tars /
// power-of-d / c3) against {FCFS, REIN-SBF, DAS} at a moderate and a high
// load. The interesting question is interaction, not either axis alone: the
// view-driven selectors (least-delay, tars, power-of-d, c3) feed off the same
// piggybacked d_hat/mu_hat feedback DAS uses for tagging, so their gains
// should compound with DAS and shrink under feedback-free FCFS. Skewed
// popularity plus a straggler replica gives both axes something to exploit.
Experiment e19_selection() {
  Experiment e{"E19_selection", {}, fcfs_rein_das(),
               {{"Mean RCT by selection mode", "mean_rct_us"},
                {"p99 RCT by selection mode", "p99_us"},
                {"Max server utilisation", "max_util"}}};
  auto cfg = eval_config();
  cfg.zipf_theta = 0.9;
  cfg.replication = 2;
  // Average-capacity calibration keeps the arrival rate identical across
  // selection modes at a given load (it depends only on total demand), so
  // the rows are comparable; the hottest-server model would re-derive a
  // different rate for primary vs the spreading modes.
  cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  // One half-speed straggler: selection has to learn around it.
  cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
  cfg.server_speed_factors[3] = 0.5;
  for (const double load : {0.5, 0.8}) {
    cfg.target_load = load;
    for (const select::Mode mode : select::all_modes()) {
      cfg.replica_selection = mode;
      e.points.push_back({std::string("sel=") + select::to_string(mode) +
                              "/load=" + (load == 0.5 ? "0.5" : "0.8"),
                          cfg, eval_window()});
    }
  }
  return e;
}

// E20 (extension) — Storage-aware service times: scheduling × the LSM store
// model. When service capacity dips under background compaction and writes
// stall behind compaction debt, do the feedback-driven policies (REIN-SBF,
// DAS) still beat FCFS — and by how much more than the synthetic model
// suggests? Three arms per load:
//
//   store=synthetic   the paper's flat service model (baseline);
//   store=lsm         full interference: compaction capacity dips + stalls;
//   store=lsm-quiet   the control — the same LSM cost structure (memtable
//                     hits, level walks) with interference disabled, so the
//                     lsm-vs-quiet delta isolates compaction/stall pain.
//
// A 30% write fraction feeds the memtables; the memtable/stall knobs are
// scaled down from production defaults so several compaction cycles fit in
// the 200ms window. Expectation: mu_hat absorbs the dips, so DAS sheds load
// off compacting servers while FCFS queues behind them — the DAS-vs-FCFS
// gain should widen in the lsm arm and revert toward baseline in lsm-quiet.
Experiment e20_storage() {
  Experiment e{"E20_storage", {}, fcfs_rein_das(),
               {{"Mean RCT by store model", "mean_rct_us"},
                {"p99 RCT by store model", "p99_us"},
                {"Max server utilisation", "max_util"}}};
  auto cfg = eval_config();
  cfg.replication = 2;
  cfg.replica_selection = core::ReplicaSelection::kLeastDelay;
  cfg.load_calibration = core::LoadCalibration::kAverageCapacity;
  cfg.write_fraction = 0.3;
  // Simulation-scale LSM: ~tens of flushes and several compaction windows
  // per server inside the measurement window.
  cfg.lsm.memtable_bytes = 16.0 * 1024.0;
  cfg.lsm.compaction_bytes_per_us = 4.0;
  cfg.lsm.stall_debt_bytes = 64.0 * 1024.0;

  struct Arm {
    const char* label;
    core::StoreModel model;
    bool interference;
  };
  const Arm arms[] = {
      {"synthetic", core::StoreModel::kSynthetic, true},
      {"lsm", core::StoreModel::kLsm, true},
      {"lsm-quiet", core::StoreModel::kLsm, false},
  };
  for (const double load : {0.5, 0.8}) {
    cfg.target_load = load;
    for (const Arm& arm : arms) {
      cfg.store_model = arm.model;
      cfg.lsm.interference = arm.interference;
      e.points.push_back({std::string("store=") + arm.label +
                              "/load=" + (load == 0.5 ? "0.5" : "0.8"),
                          cfg, eval_window()});
    }
  }
  return e;
}

// E21 (extension) — Multi-tenant fairness: does DAS protect a small tenant?
// N tenants share one cluster (equal keyspace slices, arrival rate split by
// share); the question is how the per-tenant mean RCTs spread — summarised
// by the Jain index over tenant means (1.0 = perfectly even) — under three
// tenant mixes:
//
//   uniform      four identical YCSB-B tenants: the fairness control. Any
//                policy should land near J = 1.
//   one-heavy    three small YCSB-B tenants next to one write-heavy,
//                hot-keyed YCSB-A tenant with 5x the arrival share: the noisy
//                neighbour. Request-level scheduling (REIN/DAS) orders ops by
//                request metadata, not tenant identity, so protection is
//                indirect — shorter queues help everyone, but nothing stops
//                the heavy tenant's ops from crowding a hot server.
//   drift-storm  a steady YCSB-B tenant next to a skewed tenant whose
//                popularity rotates every 20ms and which aims 60% of its
//                keys at a 4-key hot set for half the measurement window:
//                fairness under a popularity regime change.
//
// Expectation: DAS compresses everyone's RCT (its usual gain) and lifts J
// somewhat in one-heavy/drift-storm via shorter queues at the hot servers —
// but it is NOT a fairness scheduler, and the honest reading of this table
// is how much unfairness remains (see EXPERIMENTS.md E21).
Experiment e21_tenants() {
  Experiment e{"E21_tenants", {}, fcfs_rein_das(),
               {{"Mean RCT by tenant mix", "mean_rct_us"},
                {"p99 RCT by tenant mix", "p99_us"},
                {"Jain fairness over per-tenant mean RCT", "jain_fairness"}}};
  auto cfg = eval_config();
  cfg.zipf_theta = 0.9;
  // Skewed tenants need the exact hottest-server calibration: at theta 0.9
  // the average-capacity rate would push the hottest server past 1.0 and
  // every arm would just measure saturation.
  cfg.load_calibration = core::LoadCalibration::kHottestServer;
  cfg.target_load = 0.85;

  // Storm/drift times are µs into the run; the 80–150ms storm sits inside
  // the 30ms-warmup + 200ms measurement window.
  const std::pair<const char*, const char*> scenarios[] = {
      {"uniform",
       "ycsb-b+name:t0;ycsb-b+name:t1;ycsb-b+name:t2;ycsb-b+name:t3"},
      {"one-heavy",
       "ycsb-b+name:small0;ycsb-b+name:small1;ycsb-b+name:small2;"
       "ycsb-a+zipf:1.1+share:5+name:heavy"},
      {"drift-storm",
       "ycsb-b+name:steady;"
       "ycsb-b+zipf:1.1+drift:20000:13+storm:80000:150000:4:0.6:7+name:bursty"},
  };
  for (const auto& [label, tenants] : scenarios) {
    cfg.tenants = workload::parse_tenants(tenants);
    e.points.push_back({label, cfg, eval_window()});
  }
  return e;
}

// E22 (extension) — Overload control: what does each protection layer buy
// when offered load crosses capacity? The paper stops at load 0.9; this
// sweep pushes 0.7 → 1.3 under four protection configs:
//
//   none      the paper's unprotected system. Past saturation the backlog
//             grows for as long as arrivals last — requests still complete
//             (the run drains after the window closes), but the mean RCT
//             scales with the run length: there IS no steady state.
//   bounded   per-server queue cap 64, reject-new. The queue guard converts
//             unbounded waiting into explicit BUSY shedding; RCT of the
//             admitted work stays bounded.
//   deadline  bounded + a 10ms end-to-end budget: servers drop expired ops
//             at dequeue, clients fail expired requests, service spent on
//             already-dead work is counted as waste.
//   full      bounded + deadline + client-side AIMD admission control: the
//             shedding moves from the server queue (paid after network +
//             queueing) to the client (free), and goodput recovers.
//
// The metastability scenario ("storm") replays the E21 hot-key storm with
// retransmission armed: retries amplify the storm's overload (each rejected
// op is retried into the same hot servers), which is the classic retry-storm
// metastability shape. Protection bounds the amplification; the honest
// reading of the table is in EXPERIMENTS.md E22.
struct Protection {
  const char* label;
  bool bounded;
  bool deadline;
  bool admission;
};

constexpr Protection kProtections[] = {
    {"none", false, false, false},
    {"bounded", true, false, false},
    {"deadline", true, true, false},
    {"full", true, true, true},
};

overload::OverloadConfig overload_for(const Protection& p) {
  overload::OverloadConfig o;
  if (p.bounded) o.queue_cap = 64;
  if (p.deadline) o.deadline_budget_us = 10.0 * kMillisecond;
  o.admission = p.admission;
  return o;
}

Experiment e22_overload() {
  Experiment e{"E22_overload", {}, fcfs_rein_das(),
               {{"Mean RCT by protection", "mean_rct_us"},
                {"p99 RCT by protection", "p99_us"},
                {"Goodput (completed/s, measured arrivals)", "goodput_rps"},
                {"Throughput incl. degraded (settled/s)", "throughput_rps"},
                {"Requests shed (BUSY give-up + admission)", "requests_shed"},
                {"Requests expired (deadline)", "requests_expired"},
                {"Wasted service (ms past expiry)", "wasted_service_us"}}};
  auto cfg = eval_config();
  for (const double load : {0.7, 0.9, 1.1, 1.3}) {
    for (const Protection& protection : kProtections) {
      cfg.target_load = load;
      cfg.overload = overload_for(protection);
      char point[64];
      std::snprintf(point, sizeof point, "load=%.1f prot=%s", load,
                    protection.label);
      e.points.push_back({point, cfg, eval_window()});
    }
  }

  // Retry-storm metastability: a hot-key storm spanning most of the measure
  // window, with retransmission armed so every BUSY/loss is re-offered to
  // the same hot servers. Near saturation the unprotected system has no
  // slack to absorb the amplification; the protected one sheds it.
  cfg = eval_config();
  cfg.target_load = 0.95;
  cfg.zipf_theta = 0.9;
  cfg.retry_timeout_us = 2.0 * kMillisecond;
  cfg.retry_max_attempts = 3;
  cfg.tenants = workload::parse_tenants(
      "ycsb-b+name:steady;"
      "ycsb-a+zipf:1.1+storm:50000:180000:4:0.7:7+name:bursty");
  for (const Protection& protection : {kProtections[0], kProtections[3]}) {
    cfg.overload = overload_for(protection);
    e.points.push_back(
        {std::string("storm prot=") + protection.label, cfg, eval_window()});
  }
  return e;
}

struct Entry {
  const char* name;
  Experiment (*build)();
};

constexpr Entry kRegistry[] = {
    {"E1_load_mean", e1_load_mean},       {"E2_load_tail", e2_load_tail},
    {"E3_fanout", e3_fanout},             {"E4_fanout_dist", e4_fanout_dist},
    {"E5_skew", e5_skew},                 {"E6_hetero", e6_hetero},
    {"E7_timevary", e7_timevary},         {"E8_scale", e8_scale},
    {"E9_valuesize", e9_valuesize},       {"E10_summary", e10_summary},
    {"E11_ablation", e11_ablation},       {"E13_replication", e13_replication},
    {"E14_loss", e14_loss},               {"E15_preemption", e15_preemption},
    {"E16_hedging", e16_hedging},         {"E17_write_mix", e17_write_mix},
    {"E18_faults", e18_faults},           {"E19_selection", e19_selection},
    {"E20_storage", e20_storage},         {"E21_tenants", e21_tenants},
    {"E22_overload", e22_overload},
};

}  // namespace

std::vector<std::string> experiment_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

Experiment build_experiment(const std::string& name) {
  for (const Entry& entry : kRegistry)
    if (name == entry.name) return entry.build();
  std::string known;
  for (const Entry& entry : kRegistry)
    known += std::string(known.empty() ? "" : ", ") + entry.name;
  throw std::invalid_argument("unknown --experiment: " + name +
                              " (registered: " + known + ")");
}

std::vector<core::SweepPoint> sweep_points(const Experiment& experiment) {
  std::vector<core::SweepPoint> out;
  for (const GridPoint& point : experiment.points) {
    for (const sched::Policy policy : experiment.policies)
      out.push_back({experiment.name, point.label, policy, point.config,
                     point.window});
  }
  return out;
}

Experiment sweep_grid(const core::ClusterConfig& base, const core::RunWindow& window,
                      const std::vector<Policy>& policies, const std::string& loads,
                      const std::string& selections) {
  std::vector<double> load_list;
  try {
    load_list = core::parse_load_list(loads);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("flag --load: ") + e.what());
  }
  std::vector<core::ReplicaSelection> modes;
  for (const std::string& token : parse::split(selections, ',')) {
    core::ReplicaSelection mode = core::ReplicaSelection::kPrimary;
    if (!select::mode_from_string(token, mode))
      throw std::invalid_argument("flag --selection: unknown mode '" + token + "'");
    modes.push_back(mode);
  }
  // With one copy per key every mode reads the primary: the rows would be
  // identical runs under different labels.
  if (modes.size() > 1 && base.replication < 2) {
    throw std::invalid_argument(
        "flag --selection: several replica-selection modes need --replication "
        ">= 2 (got " + std::to_string(base.replication) + ")");
  }
  Experiment grid{"sweep", {}, policies, {}};
  for (const double load : load_list) {
    for (const core::ReplicaSelection mode : modes) {
      core::ClusterConfig cfg = base;
      cfg.target_load = load;
      cfg.replica_selection = mode;
      std::string label = "load=" + Table::fmt(load, 2);
      if (modes.size() > 1) label += std::string(" sel=") + select::to_string(mode);
      grid.points.push_back({std::move(label), std::move(cfg), window});
    }
  }
  grid.tables.push_back(grid.points.size() == 1
                            ? TableSpec{grid.points.front().label + " (RCT in us)", ""}
                            : TableSpec{"Mean RCT", "mean_rct_us"});
  return grid;
}

const core::ResultField* find_table_field(std::string_view metric) {
  for (const core::ResultField& field : core::result_fields())
    if (field.title != nullptr && metric == field.name) return &field;
  return nullptr;
}

namespace {

/// A table cell: a count as an integer, a real at the field's precision.
template <class Record>
std::string cell(const core::Field<Record>& field, const Record& r) {
  return field.is_count() ? std::to_string(field.count(r))
                          : Table::fmt(field.value(r), field.precision);
}

/// DAS's gain over FCFS as a signed percentage, positive when DAS is
/// better; "-" without a direction or an FCFS value to compare against.
std::string gain(const core::ResultField& field, double fcfs, double das) {
  const double g = core::gain_over_fcfs(fcfs, das, field.better);
  return std::isnan(g) ? "-" : Table::fmt_percent(g);
}

/// Labelled rows of one record type: the row's label cells and its record.
template <class Record>
using Rows = std::vector<std::pair<std::vector<std::string>, const Record*>>;

/// Prints "== heading ==" and a table of `rows`: `headers` over the label
/// cells, then a column per field of `block`, headed by its JSON name.
template <class Record>
void print_fields(std::ostream& os, const std::string& heading,
                  std::vector<std::string> headers,
                  std::span<const core::Field<Record>> fields, core::Block block,
                  const Rows<Record>& rows) {
  for (const core::Field<Record>& field : fields)
    if (field.block == block) headers.emplace_back(field.name);
  Table table{headers};
  for (auto [cells, record] : rows) {
    for (const core::Field<Record>& field : fields)
      if (field.block == block) cells.push_back(cell(field, *record));
    table.add_row(std::move(cells));
  }
  os << "== " << heading << " ==\n";
  table.print(os);
}

}  // namespace

void print_table(std::ostream& os, const Experiment& experiment,
                 const std::vector<core::SweepOutcome>& outcomes,
                 const std::string& metric) {
  const core::ResultField* field = find_table_field(metric);
  DAS_CHECK_MSG(field != nullptr, "unknown metric: " + metric);
  const std::vector<sched::Policy>& policies = experiment.policies;
  const std::size_t n = policies.size();
  DAS_CHECK(outcomes.size() == experiment.points.size() * n);
  const auto column = [&](sched::Policy p) {
    return static_cast<std::size_t>(
        std::find(policies.begin(), policies.end(), p) - policies.begin());
  };
  const std::size_t fcfs_at = column(sched::Policy::kFcfs);
  const std::size_t das_at = column(sched::Policy::kDas);
  const bool has_gain = fcfs_at < n && das_at < n;

  std::vector<std::string> headers{"point"};
  for (const sched::Policy p : policies) headers.push_back(sched::to_string(p));
  if (has_gain) headers.push_back("das vs fcfs");

  Table table{headers};
  for (std::size_t i = 0; i < experiment.points.size(); ++i) {
    // Outcomes are point-major (sweep_points order).
    const auto result = [&](std::size_t j) -> const core::ExperimentResult& {
      return outcomes[i * n + j].result;
    };
    std::vector<std::string> cells{experiment.points[i].label};
    for (std::size_t j = 0; j < n; ++j) cells.push_back(cell(*field, result(j)));
    if (has_gain)
      cells.push_back(gain(*field, field->value(result(fcfs_at)),
                           field->value(result(das_at))));
    table.add_row(std::move(cells));
  }
  os << "== " << experiment.name << " — " << field->title << " ==\n";
  table.print(os);
  os << '\n';
}

void print_block(std::ostream& os, const std::string& heading,
                 const std::vector<core::SweepOutcome>& outcomes, core::Block block) {
  Rows<core::ExperimentResult> rows;
  for (const core::SweepOutcome& o : outcomes)
    rows.push_back({{o.point, sched::to_string(o.policy)}, &o.result});
  print_fields(os, heading, {"point", "policy"}, core::result_fields(), block, rows);
}

void print_tenant_block(std::ostream& os, const std::string& heading,
                        const std::vector<core::SweepOutcome>& outcomes) {
  Rows<core::TenantOutcome> rows;
  for (const core::SweepOutcome& o : outcomes) {
    for (const core::TenantOutcome& t : o.result.tenants)
      rows.push_back({{o.point, sched::to_string(o.policy), t.name}, &t});
  }
  print_fields(os, heading, {"point", "policy", "tenant"}, core::tenant_fields(),
               core::Block::kTop, rows);
}

}  // namespace das::experiments
