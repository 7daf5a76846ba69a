// perfbench — the whole-experiment benchmark of the DAS simulator.
//
//   perfbench --workload=paper-das --seed=1 --seconds=40 --trace=0
//
// Untraced (--trace=0): builds and runs each of the workload's experiments
// once, then repeats them in this one process until --seconds of host time
// are spent. Checks every experiment, and reports the end-to-end metrics:
// host set-up and run time, peak resident set, and the simulated request
// completion time over the experiments (see run_timed). A repeat uses the same
// seed as its first run, so its simulated outputs must match bit for bit;
// that is checked too.
//
// Traced (--trace=1): one untraced run of the first experiment, then one run
// of the same config with a gauge sampler and an operation recorder attached,
// which must reproduce the untraced simulated outputs exactly; then the layer
// probes (probes.hpp). Reports the per-layer metrics of that experiment.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted counts generated requests and failed counts requests that
// failed, were shed or expired, plus every request of a run that failed a
// check. Exits 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "core/cluster.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "sim/simulator.hpp"
#include "timing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using das::core::Cluster;
using das::core::ExperimentResult;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The verdict and counts every run reports next to its metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    correct = false;
    std::cerr << "perfbench: check failed: " << why << "\n";
  }
  /// Books one experiment's requests; a run that failed a check counts all
  /// of its requests as failed.
  void book(const ExperimentResult& r, bool checks_passed) {
    attempted += r.requests_generated;
    failed += checks_passed ? r.requests_failed + r.requests_shed + r.requests_expired
                            : r.requests_generated;
  }
};

/// Every simulated output the benchmark compares between runs of one seed:
/// counts, RCT summaries, the breakdown, store counters and the dispatched
/// event count. Host times are excluded.
using SimOutputs = std::vector<std::pair<std::string, double>>;

SimOutputs simulated_outputs(const ExperimentResult& r, std::uint64_t events) {
  const auto n = [](auto v) { return static_cast<double>(v); };
  return {
      {"events", n(events)},
      {"sim_duration_us", r.sim_duration_us},
      {"rct.count", n(r.rct.count)},
      {"rct.mean", r.rct.mean},
      {"rct.p50", r.rct.p50},
      {"rct.p95", r.rct.p95},
      {"rct.p99", r.rct.p99},
      {"rct.p999", r.rct.p999},
      {"rct.max", r.rct.max},
      {"op_latency.mean", r.op_latency.mean},
      {"op_latency.p99", r.op_latency.p99},
      {"op_wait.mean", r.op_wait.mean},
      {"requests_generated", n(r.requests_generated)},
      {"requests_completed", n(r.requests_completed)},
      {"requests_measured", n(r.requests_measured)},
      {"requests_failed", n(r.requests_failed)},
      {"requests_shed", n(r.requests_shed)},
      {"requests_expired", n(r.requests_expired)},
      {"ops_generated", n(r.ops_generated)},
      {"ops_completed", n(r.ops_completed)},
      {"util_mean", r.mean_server_utilization},
      {"util_max", r.max_server_utilization},
      {"net_messages", n(r.net_messages)},
      {"net_bytes", n(r.net_bytes)},
      {"progress_messages", n(r.progress_messages)},
      {"ops_deferred", n(r.ops_deferred)},
      {"ops_resumed", n(r.ops_resumed)},
      {"ops_aged", n(r.ops_aged)},
      {"reranks_applied", n(r.reranks_applied)},
      {"store_flushes", n(r.store_flushes)},
      {"store_compactions", n(r.store_compactions)},
      {"store_write_stalls", n(r.store_write_stalls)},
      {"store_memtable_hits", n(r.store_memtable_hits)},
      {"store_level_reads", n(r.store_level_reads)},
      {"store_compaction_busy_us", r.store_compaction_busy_us},
      {"store_write_stall_us", r.store_write_stall_us},
      {"bd.requests", n(r.breakdown.requests)},
      {"bd.network_us", r.breakdown.mean_network_us},
      {"bd.runnable_wait_us", r.breakdown.mean_runnable_wait_us},
      {"bd.deferred_wait_us", r.breakdown.mean_deferred_wait_us},
      {"bd.service_us", r.breakdown.mean_service_us},
      {"bd.straggler_slack_us", r.breakdown.mean_straggler_slack_us},
  };
}

/// FNV-1a over the names and exact bit patterns of the outputs.
std::uint64_t digest(const SimOutputs& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [name, value] : outputs) {
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  return h;
}

/// Names of the outputs whose bits differ (empty when identical).
std::vector<std::string> differing(const SimOutputs& a, const SimOutputs& b) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      names.push_back(a[i].first);
    }
  }
  if (a.size() != b.size()) names.emplace_back("<output count>");
  return names;
}

/// The benchmark's correctness checks on one experiment; false on failure.
bool check_result(const ExperimentResult& r, Outcome& outcome) {
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& why) {
    if (!cond) {
      outcome.fail(why);
      ok = false;
    }
  };
  expect(r.requests_generated > 0, "no requests generated");
  expect(r.requests_generated == r.requests_completed + r.requests_failed +
                                     r.requests_shed + r.requests_expired,
         "generated != completed + failed + shed + expired");
  expect(r.ops_generated == r.ops_completed, "ops_generated != ops_completed");
  const das::trace::BreakdownSummary& bd = r.breakdown;
  const double bd_sum = bd.mean_network_us + bd.mean_runnable_wait_us +
                        bd.mean_deferred_wait_us + bd.mean_service_us;
  expect(bd.requests == r.rct.count, "breakdown and RCT sample counts differ");
  expect(std::fabs(bd_sum - r.rct.mean) <= 1e-9 * std::max(1.0, r.rct.mean),
         "breakdown components do not sum to the mean RCT");
  // p99 needs at least ten samples beyond it.
  expect(r.rct.count >= 1000, "fewer than 1000 RCT samples: p99 is unsupported");
  expect(r.rct.mean > 0 && r.rct.p50 > 0 && r.rct.p99 >= r.rct.p50,
         "RCT summary is degenerate");
  return ok;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Prints the metrics one per line, then the JSON result as the last line.
void report(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              outcome.correct ? "true" : "false", outcome.attempted, outcome.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_digest(const SimOutputs& outputs, const ExperimentResult& r) {
  std::printf("simulated-output digest %016" PRIx64 " (rct_samples %zu, requests %" PRIu64
              ", failed+shed+expired %" PRIu64 ")\n",
              digest(outputs), r.rct.count, r.requests_generated,
              r.requests_failed + r.requests_shed + r.requests_expired);
}

// --- untraced run --------------------------------------------------------------

/// Exact nearest-rank quantile of one experiment's per-request RCTs.
double rct_quantile(const std::vector<das::trace::RequestBreakdown>& rows, double q) {
  std::vector<double> rct(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rct[i] = rows[i].rct_us;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(rct.size())));
  const auto nth = rct.begin() + static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(rct.begin(), nth, rct.end());
  return *nth;
}

/// Runs every experiment of the workload once, in order, then repeats them
/// in the same order while the host-time budget lasts. The simulated metrics
/// come from the first pass's per-request RCTs: the mean over all of them,
/// and the mean over experiments of each one's exact p50 and p99. Every
/// repeat must reproduce its experiment's first-pass outputs bit for bit.
///
/// Host times are CPU seconds of this thread read at the reference speed
/// (reference.hpp). The reference loop runs before the first experiment and
/// after each one; an experiment's reference time is the mean of the loop's
/// times on either side of it. run_s is kReferenceSeconds x (total run time
/// over total reference time), and experiment_s likewise with set-up added;
/// setup_s is kReferenceSeconds x the median of every construction's time
/// over its experiment's reference time. The unscaled means are printed
/// above the JSON.
int run_timed(const Workload& w, double seconds) {
  Outcome outcome;
  // setup_s holds set-up times over the reference loop's time; the raw_*
  // lists hold unscaled CPU seconds, one per experiment.
  std::vector<double> setup_s, raw_setup_s, raw_run_s, ref_s;
  std::vector<SimOutputs> first_pass;
  double rct_sum = 0, p50_sum = 0, p99_sum = 0;
  std::size_t rct_samples = 0;
  std::uint64_t generated = 0, failed = 0;
  const auto start = Clock::now();
  double last_experiment_s = 0;
  double ref_before = reference_seconds();
  for (std::size_t rep = 0;
       rep < w.experiments.size() ||
       seconds_between(start, Clock::now()) + last_experiment_s <= seconds;
       ++rep) {
    const std::size_t k = rep % w.experiments.size();
    const auto t0 = Clock::now();
    std::vector<double> setups;
    double run = 0;
    {
      const double c0 = thread_cpu_seconds();
      Cluster cluster(w.experiments[k], w.window);
      const double c1 = thread_cpu_seconds();
      const ExperimentResult result = cluster.run();
      run = thread_cpu_seconds() - c1;
      setups.push_back(c1 - c0);
      SimOutputs outputs = simulated_outputs(result, cluster.simulator().events_dispatched());
      bool ok = check_result(result, outcome);
      if (rep == k) {
        first_pass.push_back(std::move(outputs));
        const auto& rows = cluster.breakdown().rows();
        if (rows.size() != result.rct.count || cluster.breakdown().rows_dropped() != 0) {
          outcome.fail("per-request RCT rows do not cover the measure window");
          ok = false;
        }
        for (const auto& row : rows) rct_sum += row.rct_us;
        rct_samples += rows.size();
        if (!rows.empty()) {
          p50_sum += rct_quantile(rows, 0.50);
          p99_sum += rct_quantile(rows, 0.99);
        }
        generated += result.requests_generated;
        failed += result.requests_failed + result.requests_shed + result.requests_expired;
      } else if (const auto diff = differing(first_pass[k], outputs); !diff.empty()) {
        outcome.fail("same-seed repetition changed simulated output " + diff.front());
        ok = false;
      }
      outcome.book(result, ok);
    }
    // Set-up is short next to the run on small clusters: take a few extra
    // set-up-only samples (at most ~15% of the time) so its median is steady.
    const int extra = static_cast<int>(std::min(4.0, std::floor(0.15 * run / setups[0])));
    for (int e = 0; e < extra; ++e) {
      const double s0 = thread_cpu_seconds();
      Cluster cluster(w.experiments[k], w.window);
      setups.push_back(thread_cpu_seconds() - s0);
    }
    // A tenth of the experiment's time, so long experiments get a longer look
    // at the host's speed.
    const double ref_after = reference_seconds(0.1 * (setups[0] + run));
    const double ref = 0.5 * (ref_before + ref_after);
    ref_before = ref_after;
    ref_s.push_back(ref);
    for (const double s : setups) setup_s.push_back(s / ref);
    raw_setup_s.push_back(setups[0]);
    raw_run_s.push_back(run);
    last_experiment_s = seconds_between(t0, Clock::now());
  }
  const auto experiments = static_cast<double>(w.experiments.size());
  const double sum_setup = sum(raw_setup_s), sum_run = sum(raw_run_s), sum_ref = sum(ref_s);
  std::printf("workload %s: %zu experiments (%zu distinct seeds), %zu set-up samples\n",
              w.name.c_str(), raw_run_s.size(), w.experiments.size(), setup_s.size());
  std::printf("rct_samples %zu, requests generated %" PRIu64
              ", failed+shed+expired %" PRIu64 "\n",
              rct_samples, generated, failed);
  for (std::size_t k = 0; k < first_pass.size(); ++k) {
    std::printf("experiment %zu seed %" PRIu64 " simulated-output digest %016" PRIx64 "\n", k,
                w.experiments[k].seed, digest(first_pass[k]));
  }
  std::printf("per-experiment run_s, unscaled:");
  for (const double s : raw_run_s) std::printf(" %.3f", s);
  std::printf("\nper-experiment reference loop s:");
  for (const double s : ref_s) std::printf(" %.4f", s);
  std::printf("\nunscaled means: setup_s %.6f, run_s %.6f, reference loop %.6f s\n",
              sum_setup / static_cast<double>(raw_setup_s.size()),
              sum_run / static_cast<double>(raw_run_s.size()),
              sum_ref / static_cast<double>(ref_s.size()));
  report(outcome, {
                      {"setup_s", kReferenceSeconds * median(setup_s), "s"},
                      {"run_s", kReferenceSeconds * sum_run / sum_ref, "s"},
                      {"experiment_s", kReferenceSeconds * (sum_setup + sum_run) / sum_ref, "s"},
                      {"peak_rss_mb", peak_rss_mb(), "MB"},
                      {"rct_mean_us", rct_sum / static_cast<double>(rct_samples), "us"},
                      {"rct_p50_us", p50_sum / experiments, "us"},
                      {"rct_p99_us", p99_sum / experiments, "us"},
                  });
  return 0;
}

// --- traced run ----------------------------------------------------------------

/// Reads public gauges on a fixed simulated cadence over the measure window
/// and stops itself at the horizon, so it never outlives the workload.
class GaugeSampler {
 public:
  GaugeSampler(Cluster& cluster, const das::core::RunWindow& window, das::Duration period)
      : cluster_(cluster),
        window_(window),
        process_(cluster.simulator(), period, [this] { sample(); }) {}

  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void start() { process_.start(); }

  std::uint64_t ticks = 0;
  std::uint64_t samples = 0;
  double pending_sum = 0, pending_max = 0, heap_nodes_max = 0;
  double queue_sum = 0, queue_max = 0, deferred_sum = 0, busy_sum = 0;

 private:
  void sample() {
    ++ticks;
    das::sim::Simulator& sim = cluster_.simulator();
    if (sim.now() >= window_.horizon()) {
      process_.stop();
      return;
    }
    if (sim.now() < window_.warmup_us) return;
    ++samples;
    const auto pending = static_cast<double>(sim.pending());
    pending_sum += pending;
    pending_max = std::max(pending_max, pending);
    heap_nodes_max = std::max(heap_nodes_max, static_cast<double>(sim.queued_nodes()));
    for (std::size_t s = 0; s < cluster_.server_count(); ++s) {
      const das::core::Server& server = cluster_.server(s);
      const auto queue = static_cast<double>(server.queue_length());
      queue_sum += queue;
      queue_max = std::max(queue_max, queue);
      deferred_sum += static_cast<double>(server.scheduler().deferred_size());
      busy_sum += server.busy() ? 1.0 : 0.0;
    }
  }

  Cluster& cluster_;
  das::core::RunWindow window_;
  das::sim::PeriodicProcess process_;
};

int run_traced(const Workload& w) {
  Outcome outcome;
  const das::core::ClusterConfig& cfg = w.experiments.front();

  // Untraced reference run; its host times are the base of the projections.
  ExperimentResult base;
  SimOutputs base_outputs;
  double setup_s = 0, run_s = 0;
  std::uint64_t events = 0, compactions = 0, slab_slots = 0, ops_received = 0;
  {
    const auto t0 = Clock::now();
    Cluster cluster(cfg, w.window);
    const auto t1 = Clock::now();
    base = cluster.run();
    setup_s = seconds_between(t0, t1);
    run_s = seconds_between(t1, Clock::now());
    das::sim::Simulator& sim = cluster.simulator();
    events = sim.events_dispatched();
    compactions = sim.compactions();
    slab_slots = sim.slab_slots();
    for (std::size_t s = 0; s < cluster.server_count(); ++s) {
      ops_received += cluster.server(s).ops_received();
    }
    base_outputs = simulated_outputs(base, events);
    outcome.book(base, check_result(base, outcome));
  }

  // Traced run of the same seed: gauge sampler plus operation recorder.
  ProbeInputs in;
  in.config = &cfg;
  const das::Duration period = 100.0;  // µs of simulated time between samples
  double traced_run_s = 0;
  std::uint64_t samples = 0;
  double pending_max = 0, heap_nodes_max = 0, queue_max = 0, deferred_mean = 0,
         busy_mean = 0;
  {
    Cluster cluster(cfg, w.window);
    in.key_sizes = cluster.key_sizes();
    das::workload::ReplayTrace recorded;
    cluster.set_workload_recorder(&recorded);
    GaugeSampler sampler(cluster, w.window, period);
    sampler.start();
    const auto t0 = Clock::now();
    const ExperimentResult traced = cluster.run();
    traced_run_s = seconds_between(t0, Clock::now());
    const SimOutputs outputs = simulated_outputs(
        traced, cluster.simulator().events_dispatched() - sampler.ticks);
    bool ok = check_result(traced, outcome);
    if (const auto diff = differing(base_outputs, outputs); !diff.empty()) {
      outcome.fail("traced run changed simulated output " + diff.front());
      ok = false;
    }
    outcome.book(traced, ok);
    in.ops = std::move(recorded.records);
    samples = sampler.samples;
    const double n = static_cast<double>(std::max<std::uint64_t>(samples, 1));
    const double server_samples = n * static_cast<double>(cluster.server_count());
    in.pending_mean = sampler.pending_sum / n;
    pending_max = sampler.pending_max;
    heap_nodes_max = sampler.heap_nodes_max;
    in.queue_mean = sampler.queue_sum / server_samples;
    queue_max = sampler.queue_max;
    deferred_mean = sampler.deferred_sum / server_samples;
    busy_mean = sampler.busy_sum / server_samples;
  }
  in.op_wait_mean_us = base.op_wait.mean;
  if (base.net_messages > 0) {
    in.message_bytes_mean =
        static_cast<double>(base.net_bytes) / static_cast<double>(base.net_messages);
  }
  const ProbeResults p = run_probes(in);

  // Call counts of the run, from its results and the recorded op stream.
  const auto d = [](auto v) { return static_cast<double>(v); };
  std::uint64_t write_requests = 0, read_ops = 0;
  for (const auto& rec : in.ops) {
    ++(rec.op == das::workload::ReplayOp::kWrite ? write_requests : read_ops);
  }
  const std::size_t replication =
      std::min(std::max<std::size_t>(cfg.replication, 1), cfg.num_servers);
  const std::uint64_t universe = cfg.num_servers * cfg.keys_per_server;
  const std::uint64_t populate_puts = universe * replication;
  const std::uint64_t picks = replication > 1 ? read_ops : 0;
  const std::uint64_t read_requests = base.requests_generated - write_requests;

  // Projections: per-call probe time x the run's call count. Message events
  // are charged to net, every other event to sim, so the two do not overlap.
  const double sim_s = p.sim_ns_per_event * d(events - base.net_messages) * 1e-9;
  const double net_s = p.net_ns_per_send * d(base.net_messages) * 1e-9;
  const double sched_s = (p.sched_ns_per_op * d(ops_received) +
                          p.sched_ns_per_progress * d(base.progress_messages)) *
                         1e-9;
  const double select_s = p.select_ns_per_pick * d(picks) * 1e-9;
  const double store_s = p.store_ns_per_op * d(base.ops_completed) * 1e-9;
  const double workload_s = p.workload_ns_per_request * d(read_requests) * 1e-9;
  const double populate_s = p.store_ns_per_put * d(populate_puts) * 1e-9;
  const double requests = d(std::max<std::uint64_t>(base.requests_generated, 1));
  const das::trace::BreakdownSummary& bd = base.breakdown;

  std::printf("workload %s: traced run, %" PRIu64 " gauge samples every %.0f us\n",
              w.name.c_str(), samples, period);
  print_digest(base_outputs, base);
  report(outcome,
         {
             {"sim.events", d(events), "count"},
             {"sim.events_per_s", d(events) / run_s, "1/s"},
             {"sim.ns_per_event", p.sim_ns_per_event, "ns"},
             {"sim.pending_mean", in.pending_mean, "count"},
             {"sim.pending_max", pending_max, "count"},
             {"sim.heap_nodes_max", heap_nodes_max, "count"},
             {"sim.compactions", d(compactions), "count"},
             {"sim.slab_slots", d(slab_slots), "count"},
             {"sim.projected_s", sim_s, "s"},
             {"net.messages", d(base.net_messages), "count"},
             {"net.bytes", d(base.net_bytes), "bytes"},
             {"net.progress_messages", d(base.progress_messages), "count"},
             {"net.progress_share",
              d(base.progress_messages) / d(std::max<std::uint64_t>(base.net_messages, 1)),
              "ratio"},
             {"net.ns_per_send", p.net_ns_per_send, "ns"},
             {"net.projected_s", net_s, "s"},
             {"client.ops_generated", d(base.ops_generated), "count"},
             {"client.ops_per_request", d(base.ops_generated) / requests, "ratio"},
             {"server.ops_received", d(ops_received), "count"},
             {"server.ops_completed", d(base.ops_completed), "count"},
             {"server.util_mean", base.mean_server_utilization, "ratio"},
             {"server.util_max", base.max_server_utilization, "ratio"},
             {"server.busy_sampled", busy_mean, "ratio"},
             {"server.queue_mean", in.queue_mean, "count"},
             {"server.queue_max", queue_max, "count"},
             {"core.rct_samples", d(base.rct.count), "count"},
             {"core.requests_failed_frac",
              d(base.requests_failed + base.requests_shed + base.requests_expired) /
                  requests,
              "ratio"},
             {"core.setup_s", setup_s, "s"},
             {"core.run_s", run_s, "s"},
             {"core.run_residual_s",
              run_s - (sim_s + net_s + sched_s + select_s + store_s + workload_s), "s"},
             {"core.setup_residual_s",
              setup_s - (populate_s + p.workload_generator_build_s + p.workload_catalogue_s),
              "s"},
             {"sched.ops_deferred", d(base.ops_deferred), "count"},
             {"sched.ops_resumed", d(base.ops_resumed), "count"},
             {"sched.ops_aged", d(base.ops_aged), "count"},
             {"sched.reranks", d(base.reranks_applied), "count"},
             {"sched.defer_ratio",
              d(base.ops_deferred) / d(std::max<std::uint64_t>(ops_received, 1)), "ratio"},
             {"sched.deferred_mean", deferred_mean, "count"},
             {"sched.ns_per_op", p.sched_ns_per_op, "ns"},
             {"sched.ns_per_progress", p.sched_ns_per_progress, "ns"},
             {"sched.projected_s", sched_s, "s"},
             {"select.picks", d(picks), "count"},
             {"select.ns_per_pick", p.select_ns_per_pick, "ns"},
             {"select.projected_s", select_s, "s"},
             {"store.populate_puts", d(populate_puts), "count"},
             {"store.populate_s", populate_s, "s"},
             {"store.ns_per_get", p.store_ns_per_op, "ns"},
             {"store.projected_s", store_s, "s"},
             {"store.runtime_puts", d(write_requests * replication), "count"},
             {"store.flushes", d(base.store_flushes), "count"},
             {"store.compactions", d(base.store_compactions), "count"},
             {"store.write_stalls", d(base.store_write_stalls), "count"},
             {"store.memtable_hits", d(base.store_memtable_hits), "count"},
             {"store.level_reads", d(base.store_level_reads), "count"},
             {"store.compaction_busy_us", base.store_compaction_busy_us, "us"},
             {"store.write_stall_us", base.store_write_stall_us, "us"},
             {"workload.requests", d(base.requests_generated), "count"},
             {"workload.key_universe", d(universe), "count"},
             {"workload.generator_build_s", p.workload_generator_build_s, "s"},
             {"workload.catalogue_s", p.workload_catalogue_s, "s"},
             {"workload.ns_per_request", p.workload_ns_per_request, "ns"},
             {"workload.projected_s", workload_s, "s"},
             {"bd.network_us", bd.mean_network_us, "us"},
             {"bd.runnable_wait_us", bd.mean_runnable_wait_us, "us"},
             {"bd.deferred_wait_us", bd.mean_deferred_wait_us, "us"},
             {"bd.service_us", bd.mean_service_us, "us"},
             {"bd.straggler_slack_us", bd.mean_straggler_slack_us, "us"},
             {"trace.overhead_s", traced_run_s - run_s, "s"},
             {"trace.samples", d(samples), "count"},
         });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  das::Flags flags;
  flags.define("workload", "", "workload name: paper-das | scale-256 | writes-lsm");
  flags.define("seed", "1", "benchmark seed; the experiments' config seeds derive from it");
  flags.define("seconds", "40", "host seconds to spend repeating the experiments");
  flags.define("trace", "0", "1 = traced run reporting the per-layer metrics");
  flags.define("warmup-ms", "-1", "override the warmup window (ms; smoke tests)");
  flags.define("measure-ms", "-1", "override the measure window (ms; smoke tests)");
  flags.define("help", "false", "show this help");
  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  if (flags.get_bool("help")) {
    flags.print_help(std::cout, "perfbench");
    return 0;
  }
  perfbench::Workload workload;
  const std::string name = flags.get_string("workload");
  if (!perfbench::make_workload(name, static_cast<std::uint64_t>(flags.get_int("seed")),
                                workload)) {
    std::cerr << "unknown workload '" << name << "'\n";
    return 2;
  }
  if (flags.get_double("warmup-ms") >= 0) {
    workload.window.warmup_us = flags.get_double("warmup-ms") * das::kMillisecond;
  }
  if (flags.get_double("measure-ms") > 0) {
    workload.window.measure_us = flags.get_double("measure-ms") * das::kMillisecond;
  }
  return flags.get_int("trace") != 0
             ? perfbench::run_traced(workload)
             : perfbench::run_timed(workload, flags.get_double("seconds"));
}
