#include "perf.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace das::core {

namespace {

// NOLINTBEGIN(das-no-wallclock): this file IS the wall-clock harness — it
// measures host events/sec for BENCH_PERF.json. Simulation results never
// depend on these readings.
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

PerfPoint finish_point(std::string name, const sim::Simulator& sim,
                       Clock::time_point start) {
  PerfPoint p;
  p.point = std::move(name);
  p.events = sim.events_dispatched();
  p.lane_events = sim.lane_events();
  p.other_events = p.events;
  p.wall_seconds = seconds_since(start);
  p.events_per_sec =
      static_cast<double>(p.events) / std::max(p.wall_seconds, 1e-9);
  p.sim_time_us = sim.now();
  return p;
}

/// Pure schedule + dispatch: many interleaved self-rescheduling timers keep
/// the heap at a realistic mixed depth with zero work per callback.
struct TimerRing {
  sim::Simulator sim;
  std::uint64_t remaining = 0;

  void arm(Duration period) {
    if (remaining == 0) return;
    --remaining;
    sim.schedule_after(period, [this, period] { arm(period); });
  }
};

PerfPoint run_timer_ring(std::uint64_t events) {
  TimerRing ring;
  ring.remaining = events;
  constexpr int kLanes = 64;
  for (int lane = 0; lane < kLanes; ++lane) {
    // Coprime-ish periods keep the lanes from dispatching in lockstep.
    ring.arm(1.0 + 0.137 * static_cast<double>(lane));
  }
  const auto start = Clock::now();
  ring.sim.run();
  return finish_point("sim_timer_ring", ring.sim, start);
}

/// Hedging-style cancellation: every dispatched "response" cancels three
/// armed timers that never fire, so the heap churns through dead nodes and
/// compaction under the exact pattern retry/hedge workloads produce.
struct CancelHeavy {
  sim::Simulator sim;
  Rng rng{0xCA4CE1};
  std::uint64_t remaining = 0;

  void step() {
    if (remaining == 0) return;
    --remaining;
    std::array<sim::EventHandle, 3> hedges;
    for (std::size_t i = 0; i < hedges.size(); ++i) {
      hedges[i] = sim.schedule_after(
          50.0 + static_cast<double>(i), [] {});
    }
    sim.schedule_after(rng.uniform(1.0, 10.0), [this, hedges] {
      for (const sim::EventHandle h : hedges) sim.cancel(h);
      step();
    });
  }
};

PerfPoint run_cancel_heavy(std::uint64_t events) {
  CancelHeavy bench;
  bench.remaining = events;
  constexpr int kLanes = 32;
  for (int lane = 0; lane < kLanes; ++lane) bench.step();
  const auto start = Clock::now();
  bench.sim.run();
  return finish_point("sim_cancel_heavy", bench.sim, start);
}

/// Network streaming: each delivery sends the next message on its link, so
/// the point measures send + latency sampling + FIFO clamping + dispatch. A
/// message's ticket is its link, (from, to) in two 16-bit halves.
struct NetStream final : sim::MessageSink {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::uint64_t remaining = 0;

  void pump(net::NodeId from, net::NodeId to) {
    if (remaining == 0) return;
    --remaining;
    net->send(from, to, 256, from << 16 | to);
  }
  void deliver(sim::Ticket ticket) override {
    pump(ticket & 0xFFFFu, ticket >> 16);
  }
};

PerfPoint run_net_stream(std::uint64_t events) {
  NetStream bench;
  constexpr net::NodeId kLinks = 16;
  net::Network::Config cfg;
  cfg.latency = net::make_uniform_latency(2.0, 8.0);
  cfg.num_nodes = 2 * kLinks;
  bench.net = std::make_unique<net::Network>(bench.sim, cfg, Rng{0x4E7});
  bench.sim.set_message_sink(&bench);
  bench.remaining = events;
  for (net::NodeId link = 0; link < kLinks; ++link) {
    bench.pump(link, kLinks + link);
  }
  const auto start = Clock::now();
  bench.sim.run();
  return finish_point("net_fifo_stream", bench.sim, start);
}

/// Full system: scheduler bookkeeping, progress fan-in, metrics, breakdown.
PerfPoint run_cluster_point(const char* name, sched::Policy policy,
                            Duration measure_us) {
  ClusterConfig cfg;
  cfg.num_servers = 16;
  cfg.num_clients = 4;
  cfg.keys_per_server = 200;
  cfg.zipf_theta = 0.9;
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.target_load = 0.8;
  cfg.policy = policy;
  cfg.seed = 93;
  RunWindow window;
  window.warmup_us = 10.0 * kMillisecond;
  window.measure_us = measure_us;
  Cluster cluster{cfg, window};
  const auto start = Clock::now();
  const ExperimentResult result = cluster.run();
  DAS_CHECK(result.requests_completed == result.requests_generated);
  PerfPoint p = finish_point(name, cluster.simulator(), start);
  const Cluster::DeliveryCounts& delivered = cluster.deliveries();
  p.op_deliveries = delivered.ops;
  p.response_deliveries = delivered.responses;
  p.progress_deliveries = delivered.progress;
  p.other_events = p.events - delivered.total();
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    const sched::MechanismCounters counters =
        cluster.server(s).scheduler().mechanism_counters();
    p.progress_rekeyed += counters.progress_rekeyed;
    p.progress_unqueued += counters.progress_unqueued;
  }
  return p;
}

// NOLINTEND(das-no-wallclock)

}  // namespace

std::vector<PerfPoint> run_perf_suite(const PerfOptions& options) {
  DAS_CHECK_MSG(options.scale > 0, "perf scale must be positive");
  const auto scaled = [&](double base) {
    return static_cast<std::uint64_t>(
        std::max(1.0, base * options.scale));
  };
  std::vector<PerfPoint> points;
  points.push_back(run_timer_ring(scaled(2e6)));
  points.push_back(run_cancel_heavy(scaled(5e5)));
  points.push_back(run_net_stream(scaled(1e6)));
  if (!options.engine_only) {
    const Duration measure = 150.0 * kMillisecond * options.scale;
    points.push_back(
        run_cluster_point("cluster_fcfs", sched::Policy::kFcfs, measure));
    points.push_back(
        run_cluster_point("cluster_das", sched::Policy::kDas, measure));
  }
  return points;
}

}  // namespace das::core
