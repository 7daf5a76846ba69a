#include "probes.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "net/network.hpp"
#include "sched/scheduler.hpp"
#include "select/selector.hpp"
#include "sim/simulator.hpp"
#include "store/lsm_model.hpp"
#include "store/partitioner.hpp"
#include "timing.hpp"
#include "workload/multiget.hpp"
// ROADMAP items 2 and 3 plan to delete the storage engine and retype
// Network::send. Probes of APIs that are gone report 0, so the benchmark
// still builds on both sides of such a change.
#if __has_include("store/storage_engine.hpp")
#include "store/storage_engine.hpp"
#define PERFBENCH_HAS_STORAGE_ENGINE 1
#endif

namespace perfbench {

namespace {

using das::Bytes;
using das::KeyId;
using das::Rng;
using das::SimTime;
using das::core::ClusterConfig;

/// Results of probed calls are folded in here so the optimiser cannot drop
/// the calls.
volatile std::uint64_t g_sink = 0;
void sink(std::uint64_t v) { g_sink = g_sink + v; }

constexpr int kRounds = 5;

/// One untimed warm-up round, then the median over kRounds of the host time
/// per call; `round` performs `calls` calls.
template <typename F>
double median_ns_per_call(std::size_t calls, F&& round) {
  round();
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    round();
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(calls));
  }
  return median(std::move(ns));
}

std::size_t depth_of(double mean) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean)));
}

double op_demand_us(const ClusterConfig& cfg, Bytes size) {
  return cfg.per_op_overhead_us +
         static_cast<double>(size) / cfg.service_bytes_per_us;
}

das::store::PartitionerPtr make_partitioner(const ClusterConfig& cfg) {
  return cfg.ring_vnodes > 0
             ? das::store::make_consistent_hash_ring(cfg.num_servers, cfg.ring_vnodes)
             : das::store::make_modulo_partitioner(cfg.num_servers);
}

std::size_t replication_of(const ClusterConfig& cfg) {
  return std::min(std::max<std::size_t>(cfg.replication, 1), cfg.num_servers);
}

// --- sim ---------------------------------------------------------------------

/// A self-rescheduling event whose capture is about the size of the
/// cluster's per-op message closure (an OpContext plus pointers).
struct HoldEvent {
  das::sim::Simulator* sim;
  Rng* rng;
  std::array<std::uint64_t, 18> payload{};
  void operator()() {
    ++payload[0];
    sim->schedule_after(rng->exponential(10.0), *this);
  }
};

double probe_sim(const ProbeInputs& in) {
  das::sim::Simulator sim;
  Rng rng{in.config->seed};
  for (std::size_t i = 0; i < depth_of(in.pending_mean); ++i) {
    sim.schedule_after(rng.exponential(10.0), HoldEvent{&sim, &rng});
  }
  constexpr std::size_t kCalls = 200'000;
  return median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) sim.step();
    sink(sim.events_dispatched());
  });
}

// --- net ---------------------------------------------------------------------

/// A message whose delivery sends the next one between random nodes, so the
/// number in flight stays at the observed depth.
template <typename Network>
struct HopMessage {
  Network* net;
  Rng* rng;
  std::uint32_t nodes;
  Bytes size;
  std::array<std::uint64_t, 16> payload{};
  void operator()() {
    ++payload[0];
    const auto from = static_cast<das::net::NodeId>(rng->next_below(nodes));
    const auto to = static_cast<das::net::NodeId>(rng->next_below(nodes));
    net->send(from, to, size, das::sim::EventFn{*this});
  }
};

template <typename Network = das::net::Network>
double probe_net(const ProbeInputs& in) {
  if constexpr (requires(Network& n, das::sim::EventFn fn) {
                  n.send(das::net::NodeId{}, das::net::NodeId{}, Bytes{}, std::move(fn));
                }) {
    const ClusterConfig& cfg = *in.config;
    das::sim::Simulator sim;
    typename Network::Config net_cfg;
    net_cfg.latency =
        cfg.net_jitter_sigma > 0
            ? das::net::make_lognormal_latency(cfg.net_latency_us, cfg.net_jitter_sigma)
            : das::net::make_constant_latency(cfg.net_latency_us);
    const auto nodes = static_cast<std::uint32_t>(cfg.num_servers + cfg.num_clients);
    net_cfg.num_nodes = nodes;
    Network net(sim, net_cfg, Rng{in.config->seed});
    Rng rng{in.config->seed + 1};
    const auto size = static_cast<Bytes>(std::lround(in.message_bytes_mean));
    for (std::size_t i = 0; i < depth_of(in.pending_mean); ++i) {
      HopMessage<Network>{&net, &rng, nodes, size}();
    }
    constexpr std::size_t kCalls = 200'000;
    return median_ns_per_call(kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) sim.step();
      sink(net.stats().messages_sent);
    });
  } else {
    return 0;
  }
}

// --- sched -------------------------------------------------------------------

/// Builds operations tagged the way clients tag them: siblings of 4-key
/// requests, demand from the catalogue, deferral bounds a queue-wait ahead.
class OpSource {
 public:
  OpSource(const ProbeInputs& in, std::uint64_t seed)
      : cfg_(*in.config), sizes_(in.key_sizes), wait_(in.op_wait_mean_us), rng_(seed) {}

  das::sched::OpContext next(SimTime now) {
    das::sched::OpContext op;
    op.op_id = ++op_seq_;
    op.request_id = op_seq_ / 4;
    op.key = rng_.next_below(sizes_.size());
    op.demand_us = op_demand_us(cfg_, sizes_[op.key]);
    op.request_arrival = now - rng_.uniform(0, 2 * wait_);
    op.remaining_critical_us = op.demand_us * rng_.uniform(1.0, 3.0);
    op.est_other_completion =
        now + 2 * cfg_.net_latency_us + wait_ * rng_.uniform(0.0, 2.0) +
        op.remaining_critical_us;
    op.bottleneck_ops = 1;
    op.bottleneck_demand_us = op.demand_us;
    op.total_demand_us = op.demand_us * 4;
    op.deadline = op.request_arrival + cfg_.edf_slo_us;
    return op;
  }

 private:
  const ClusterConfig& cfg_;
  const std::vector<Bytes>& sizes_;
  double wait_;
  Rng rng_;
  std::uint64_t op_seq_ = 0;
};

das::sched::SchedulerPtr make_probe_scheduler(const ClusterConfig& cfg,
                                              std::uint64_t seed) {
  das::sched::SchedulerConfig sched_cfg = cfg.sched_config;
  sched_cfg.seed = seed;
  auto scheduler = das::sched::make_scheduler(cfg.policy, sched_cfg);
  scheduler->on_speed_estimate(1.0);
  return scheduler;
}

void probe_sched(const ProbeInputs& in, ProbeResults& out) {
  const ClusterConfig& cfg = *in.config;
  const std::size_t depth = depth_of(in.queue_mean);
  const double step_us = op_demand_us(cfg, 400);
  constexpr std::size_t kCalls = 100'000;
  {
    auto scheduler = make_probe_scheduler(cfg, in.config->seed);
    OpSource source(in, in.config->seed + 2);
    SimTime now = 0;
    for (std::size_t i = 0; i < depth; ++i) scheduler->enqueue(source.next(now), now);
    out.sched_ns_per_op = median_ns_per_call(kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        now += step_us;
        scheduler->enqueue(source.next(now), now);
        sink(scheduler->dequeue(now).op_id);
      }
    });
  }
  {
    // Progress for requests that have an op queued here, shrinking their
    // remaining work the way sibling completions do.
    auto scheduler = make_probe_scheduler(cfg, in.config->seed);
    OpSource source(in, in.config->seed + 3);
    const std::size_t queued = std::max<std::size_t>(depth, 8);
    std::vector<das::sched::OpContext> ops;
    for (std::size_t i = 0; i < queued; ++i) {
      ops.push_back(source.next(0));
      scheduler->enqueue(ops.back(), 0);
    }
    Rng rng{in.config->seed + 4};
    SimTime now = 0;
    out.sched_ns_per_progress = median_ns_per_call(kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        now += 1.0;
        const das::sched::OpContext& op = ops[rng.next_below(ops.size())];
        das::sched::ProgressUpdate update;
        update.remaining_critical_us = op.remaining_critical_us * rng.uniform(0.2, 1.0);
        update.est_other_completion = now + op.remaining_critical_us;
        update.remaining_total_us = op.total_demand_us * rng.uniform(0.2, 1.0);
        scheduler->on_request_progress(op.request_id, update, now);
      }
      sink(scheduler->size());
    });
  }
}

// --- select ------------------------------------------------------------------

double probe_select(const ProbeInputs& in) {
  const ClusterConfig& cfg = *in.config;
  const auto partitioner = make_partitioner(cfg);
  const std::size_t replication = replication_of(cfg);
  auto selector = das::select::make_selector(cfg.replica_selection);
  Rng rng{in.config->seed + 5};
  std::vector<double> d_est(cfg.num_servers);
  for (double& d : d_est) d = rng.exponential(std::max(in.op_wait_mean_us, 1.0));
  const std::vector<double> mu_est(cfg.num_servers, 1.0);
  const std::vector<char> suspected(cfg.num_servers, 0);
  das::select::LearnedView view;
  view.d_est = &d_est;
  view.mu_est = &mu_est;
  view.suspected = &suspected;
  view.est_rtt_us = 2.0 * cfg.net_latency_us;

  std::vector<KeyId> keys;
  for (const auto& rec : in.ops) {
    if (rec.op == das::workload::ReplayOp::kRead) keys.push_back(rec.key);
  }
  if (keys.empty()) keys.push_back(0);
  std::size_t next = 0;
  SimTime now = 0;
  constexpr std::size_t kCalls = 100'000;
  return median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const KeyId key = keys[next];
      next = next + 1 == keys.size() ? 0 : next + 1;
      now += 1.0;
      const auto replicas = partitioner->replicas_for(key, replication);
      const double demand = op_demand_us(cfg, in.key_sizes[key]);
      sink(selector->pick(replicas, view, {demand, key, now}, rng));
    }
  });
}

// --- store -------------------------------------------------------------------

/// Keys stored on server 0.
std::vector<KeyId> keys_of_server0(const ClusterConfig& cfg) {
  const auto partitioner = make_partitioner(cfg);
  const std::size_t replication = replication_of(cfg);
  std::vector<KeyId> keys;
  const std::uint64_t universe = cfg.num_servers * cfg.keys_per_server;
  for (KeyId key = 0; key < universe; ++key) {
    for (const das::ServerId s : partitioner->replicas_for(key, replication)) {
      if (s == 0) keys.push_back(key);
    }
  }
  return keys;
}

/// The constructor's populate loop on fresh servers: every key, in key order,
/// Server::populate on each of its replicas. Returns ns per key copy.
template <typename Server = das::core::Server>
double probe_populate(const ProbeInputs& in) {
  if constexpr (requires(Server& s) { s.populate(KeyId{}, Bytes{}); }) {
    const ClusterConfig& cfg = *in.config;
    das::sim::Simulator sim;
    das::core::Metrics metrics;
    std::vector<std::unique_ptr<Server>> servers;
    for (std::size_t s = 0; s < cfg.num_servers; ++s) {
      typename Server::Params params;
      params.id = static_cast<das::ServerId>(s);
      servers.push_back(std::make_unique<Server>(
          sim, std::move(params), make_probe_scheduler(cfg, in.config->seed), metrics));
    }
    const auto partitioner = make_partitioner(cfg);
    const std::size_t replication = replication_of(cfg);
    std::uint64_t copies = 0;
    const auto t0 = Clock::now();
    for (KeyId key = 0; key < in.key_sizes.size(); ++key) {
      for (const das::ServerId s : partitioner->replicas_for(key, replication)) {
        servers[s]->populate(key, in.key_sizes[key]);
        ++copies;
      }
    }
    const double seconds = seconds_between(t0, Clock::now());
    sink(copies);
    return seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(copies, 1));
  } else {
    return 0;
  }
}

/// Per-op store work at a server: the engine lookup, plus the LSM model's
/// pricing and state update when the workload runs it, on the workload's own
/// read/write mix.
double probe_store_op(const ProbeInputs& in, const std::vector<KeyId>& keys) {
#ifdef PERFBENCH_HAS_STORAGE_ENGINE
  const ClusterConfig& cfg = *in.config;
  if (keys.empty()) return 0;
  das::store::StorageEngine engine;
  for (const KeyId key : keys) engine.put(key, in.key_sizes[key], 0);
  std::unique_ptr<das::store::LsmModel> lsm;
  if (cfg.store_model == das::core::StoreModel::kLsm) {
    das::store::LsmOptions options = cfg.lsm;
    options.per_op_overhead_us = cfg.per_op_overhead_us;
    options.service_bytes_per_us = cfg.service_bytes_per_us;
    lsm = std::make_unique<das::store::LsmModel>(options, in.config->seed);
  }
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  for (const auto& rec : in.ops) {
    ++(rec.op == das::workload::ReplayOp::kWrite ? writes : reads);
  }
  // Each write lands on every replica; each read on one.
  const double write_share =
      static_cast<double>(writes * replication_of(cfg)) /
      static_cast<double>(std::max<std::uint64_t>(writes * replication_of(cfg) + reads, 1));
  Rng rng{in.config->seed + 6};
  SimTime now = 0;
  const double step_us = op_demand_us(cfg, 400);
  constexpr std::size_t kCalls = 100'000;
  return median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      now += step_us;
      const KeyId key = keys[rng.next_below(keys.size())];
      const bool is_write = rng.chance(write_share);
      Bytes size = in.key_sizes[key];
      if (is_write) {
        engine.put(key, size, now);
      } else {
        const auto record = engine.get(key, now);
        size = record ? record->size : 0;
      }
      if (lsm != nullptr) {
        das::store::OpCostQuery q;
        q.key = key;
        q.is_write = is_write;
        q.size_bytes = size;
        q.nominal_demand_us = op_demand_us(cfg, size);
        sink(static_cast<std::uint64_t>(lsm->capacity_factor(now) * 1e6));
        sink(static_cast<std::uint64_t>(lsm->base_cost_us(q, now)));
        lsm->on_op_complete(q, now);
      }
      sink(size);
    }
  });
#else
  (void)in;
  (void)keys;
  return 0;
#endif
}

// --- workload ----------------------------------------------------------------

das::workload::MultigetGenerator::Config generator_config(const ClusterConfig& cfg) {
  das::workload::MultigetGenerator::Config gen_cfg;
  gen_cfg.key_universe = cfg.num_servers * cfg.keys_per_server;
  gen_cfg.zipf_theta = cfg.zipf_theta;
  gen_cfg.fanout = cfg.fanout;
  return gen_cfg;
}

void probe_workload(const ProbeInputs& in, ProbeResults& out) {
  const ClusterConfig& cfg = *in.config;
  std::vector<double> build_s;
  std::vector<double> catalogue_s;
  for (int r = 0; r < kRounds; ++r) {
    auto t0 = Clock::now();
    das::workload::MultigetGenerator gen(generator_config(cfg));
    build_s.push_back(seconds_between(t0, Clock::now()));
    sink(gen.key_for_rank(0));

    // The catalogue loop of the Cluster constructor: one size draw per key.
    t0 = Clock::now();
    Rng size_rng{in.config->seed + 7};
    std::vector<Bytes> sizes(gen.key_universe());
    for (Bytes& size : sizes) {
      size = static_cast<Bytes>(
          std::max(1.0, std::round(cfg.value_size_bytes->sample(size_rng))));
    }
    catalogue_s.push_back(seconds_between(t0, Clock::now()));
    sink(sizes.back());
  }
  out.workload_generator_build_s = median(std::move(build_s));
  out.workload_catalogue_s = median(std::move(catalogue_s));

  const das::workload::MultigetGenerator gen(generator_config(cfg));
  Rng rng{in.config->seed + 8};
  constexpr std::size_t kCalls = 100'000;
  out.workload_ns_per_request = median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) sink(gen.generate(rng, 0).keys.size());
  });
}

}  // namespace

ProbeResults run_probes(const ProbeInputs& in) {
  ProbeResults out;
  out.sim_ns_per_event = probe_sim(in);
  out.net_ns_per_send = probe_net(in);
  probe_sched(in, out);
  out.select_ns_per_pick = probe_select(in);
  out.store_ns_per_put = probe_populate(in);
  out.store_ns_per_op = probe_store_op(in, keys_of_server0(*in.config));
  probe_workload(in, out);
  return out;
}

}  // namespace perfbench
