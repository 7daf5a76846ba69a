#include "core/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "core/wire.hpp"
#include "workload/arrival.hpp"

namespace das::core {

namespace {

/// Tenant t's contiguous keyspace slice: equal floor(universe / count) keys
/// each, the last tenant absorbing the remainder.
struct TenantSlice {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

TenantSlice tenant_slice(std::uint64_t universe, std::size_t count, std::size_t t) {
  const std::uint64_t slice = universe / count;
  const std::uint64_t base = slice * static_cast<std::uint64_t>(t);
  return {base, t + 1 == count ? universe - base : slice};
}

/// Copies a ledger's run and window counts into a result (ExperimentResult
/// and TenantOutcome name the fields alike).
template <typename Result>
void fill_request_counts(Result& out, const RequestCounts& run,
                         const RequestCounts& window) {
  out.requests_generated = run.generated;
  out.requests_completed = run.completed;
  out.requests_failed = run.failed;
  out.requests_shed = run.shed;
  out.requests_expired = run.expired;
  out.requests_measured = window.completed;
  out.requests_failed_measured = window.failed;
  out.requests_shed_measured = window.shed;
  out.requests_expired_measured = window.expired;
}

}  // namespace

Cluster::Cluster(ClusterConfig config, RunWindow window, trace::Tracer* tracer)
    : config_(std::move(config)),
      cost_{config_.per_op_overhead_us, config_.service_bytes_per_us},
      window_(window),
      tracer_(tracer) {
  DAS_CHECK(window_.measure_us > 0);
  config_.validate();

  Rng master{config_.seed};

  // Network.
  net::Network::Config net_cfg;
  net_cfg.latency = config_.net_jitter_sigma > 0
                        ? net::make_lognormal_latency(config_.net_latency_us,
                                                      config_.net_jitter_sigma)
                        : net::make_constant_latency(config_.net_latency_us);
  net_cfg.loss_probability = config_.msg_loss_probability;
  net_cfg.num_nodes = static_cast<std::uint32_t>(config_.num_servers +
                                                 config_.num_clients);
  net_ = std::make_unique<net::Network>(sim_, net_cfg, master.fork(0xA11CE));

  // Placement.
  partitioner_ = config_.ring_vnodes > 0
                     ? store::make_consistent_hash_ring(config_.num_servers,
                                                        config_.ring_vnodes)
                     : store::make_modulo_partitioner(config_.num_servers);

  // Every tenant resolved once: its spec's setting where it has one, the
  // cluster's otherwise. A run without tenants is one default TenantSpec{},
  // which inherits every cluster-level workload setting.
  const workload::TenantSpec inherit_all{};
  const std::size_t tenant_count = std::max<std::size_t>(config_.tenants.size(), 1);
  const std::uint64_t universe =
      config_.num_servers * config_.keys_per_server;
  key_sizes_.resize(universe);
  Rng size_rng = master.fork(0x512E);
  tenants_.resize(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const workload::TenantSpec& spec =
        config_.tenants.empty() ? inherit_all : config_.tenants[t];
    Tenant& tenant = tenants_[t];
    tenant.share = spec.share;
    tenant.value_size = spec.value_size ? spec.value_size : config_.value_size_bytes;
    tenant.own_value_size = spec.value_size != nullptr;
    tenant.mix = spec.mix.value_or(
        workload::OpMix{1.0 - config_.write_fraction, config_.write_fraction, 0.0});
    tenant.replay = spec.replay.get();

    // Key catalogue: sizes drawn once, each key from its owning tenant's
    // value-size distribution, in key order from one sequential stream, and
    // never mutated. Clients read it under the shared overlay of issued
    // writes and stamp it on every op; servers serve it under their own PUTs.
    const TenantSlice slice = tenant_slice(universe, tenant_count, t);
    const RealDistribution& dist = *tenant.value_size;
    for (std::uint64_t key = slice.base; key < slice.base + slice.size; ++key) {
      const double size = std::max(1.0, std::round(dist.sample(size_rng)));
      if (!(size < 0x1p32)) {
        throw std::invalid_argument(
            "ClusterConfig: " +
            (tenant.own_value_size
                 ? "tenants[" + std::to_string(t) + "] ('" + spec.name + "') size:"
                 : std::string{"value_size_bytes (--value-size)"}) +
            " drew a size of 2^32 B or more; the size catalogue is 32-bit");
      }
      key_sizes_[key] = static_cast<std::uint32_t>(size);
    }

    // A synthetic tenant's generator draws over its contiguous slice.
    if (tenant.replay != nullptr) continue;
    workload::MultigetGenerator::Config gen_cfg;
    gen_cfg.key_universe = slice.size;
    gen_cfg.key_base = slice.base;
    gen_cfg.zipf_theta = spec.zipf_theta >= 0 ? spec.zipf_theta : config_.zipf_theta;
    gen_cfg.fanout = spec.fanout ? spec.fanout : config_.fanout;
    // Distinct permutation per tenant so tenants' hot keys land on
    // different servers instead of colliding rank-for-rank.
    gen_cfg.rank_permutation_seed =
        0x9E3779B9ull + 0xD1B54A32D192ED03ull * static_cast<std::uint64_t>(t);
    gen_cfg.drift = spec.drift;
    tenant.generator = std::make_unique<workload::MultigetGenerator>(gen_cfg);
  }

  // The one measurement window: request counts, latencies, the RCT
  // breakdown and server busy time are all measured over it.
  metrics_.set_window(window_.warmup_us, window_.horizon());

  // Servers.
  servers_.reserve(config_.num_servers);
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    Server::Params params;
    params.id = static_cast<ServerId>(s);
    params.speed_factor =
        config_.server_speed_factors.empty() ? 1.0 : config_.server_speed_factors[s];
    if (!config_.speed_profiles.empty()) {
      params.speed_profile = config_.speed_profiles.size() == 1
                                 ? config_.speed_profiles[0]
                                 : config_.speed_profiles[s];
    }
    params.preemptive = config_.preemptive_service;
    params.overload = config_.overload;
    if (config_.store_model == StoreModel::kLsm) {
      // Forked only in LSM mode so the synthetic fork sequence — and with it
      // every golden result — is untouched (Rng::fork consumes parent state).
      params.lsm = std::make_unique<store::LsmModel>(
          config_.lsm, cost_, master.fork(0x15A0D0 + s).next_u64());
    }

    sched::SchedulerConfig sched_cfg = config_.sched_config;
    sched_cfg.seed = master.fork(0x5EED + s).next_u64();
    auto scheduler = sched::make_scheduler(config_.policy, sched_cfg);

    auto server = std::make_unique<Server>(sim_, std::move(params),
                                           std::move(scheduler), metrics_);
    if (tracer_ != nullptr) server->set_tracer(tracer_);
    servers_.push_back(std::move(server));
  }

  // Every server (and through it, its scheduler) is auditable, and so is the
  // cluster's request ledger; the cadence decides whether audits run
  // continuously during the event loop.
  for (const auto& server : servers_) sim_.add_auditable(server.get());
  sim_.add_auditable(this);
  sim_.set_audit_cadence(config_.audit_every_events);

  // Message routing: servers and clients send through this cluster's
  // Transport, and the simulator delivers every ticket back to it.
  for (auto& server : servers_) server->set_transport(*this);
  sim_.set_message_sink(this);

  metrics_.enable_tenants(tenant_count);

  // Clients.
  const double share_sum = synthetic_share_sum();
  request_rate_ = derived_request_rate();
  const double per_client_rate =
      request_rate_ / static_cast<double>(config_.num_clients);
  const bool progress = sched::uses_progress(config_.policy);
  const bool adaptive = sched::learns_estimates(config_.policy);

  const std::size_t replication =
      std::min(std::max<std::size_t>(config_.replication, 1), config_.num_servers);
  clients_.reserve(config_.num_clients);
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    Client::Params params;
    params.id = static_cast<ClientId>(c);
    params.num_servers = config_.num_servers;
    params.num_clients = config_.num_clients;
    params.cost = cost_;
    params.adaptive = adaptive;
    params.progress_updates = progress;
    params.est_rtt_us = 2.0 * config_.net_latency_us;
    params.edf_slo_us = config_.edf_slo_us;
    params.replication = replication;
    params.replica_selection = config_.replica_selection;
    params.retry_timeout_us = config_.retry_timeout_us;
    params.retry_backoff_max_us = config_.retry_backoff_max_us;
    params.retry_max_attempts = config_.retry_max_attempts;
    params.suspicion_rto_threshold = config_.suspicion_rto_threshold;
    params.hedge_delay_us = config_.hedge_delay_us;
    params.overload = config_.overload;

    std::vector<Client::TenantStream> streams(tenant_count);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      const Tenant& tenant = tenants_[t];
      Client::TenantStream& stream = streams[t];
      if (tenant.replay != nullptr) {
        stream.replay = tenant.replay;
        continue;
      }
      stream.generator = tenant.generator.get();
      // The cluster rate splits across synthetic tenants by share, then
      // across clients evenly.
      const double rate = per_client_rate * tenant.share / share_sum;
      stream.arrivals =
          config_.load_profile
              ? workload::make_modulated_poisson(rate, config_.load_profile)
              : workload::make_poisson_arrivals(rate);
      stream.mix = tenant.mix;
      stream.value_size = tenant.value_size;
    }
    clients_.push_back(std::make_unique<Client>(
        sim_, params, master.fork(0xC11E47 + c), std::move(streams),
        *partitioner_, key_sizes_, issued_sizes_, metrics_,
        static_cast<Transport&>(*this)));
    if (tracer_ != nullptr) clients_.back()->set_tracer(tracer_);
  }
  metrics_.retain_breakdown_rows(config_.breakdown_retain_requests,
                                 request_rate_ * window_.measure_us);
}

double Cluster::synthetic_share_sum() const {
  double sum = 0;
  for (const Tenant& tenant : tenants_) {
    if (tenant.replay == nullptr) sum += tenant.share;
  }
  return sum;
}

double Cluster::derived_request_rate() const {
  // The expected demand of one request is the share-weighted average across
  // SYNTHETIC tenants of their mix-weighted read / update / read-modify-write
  // work. Replay tenants contribute no derived load — their rate comes
  // verbatim from the trace timestamps. A run without tenants is the
  // one-tenant case: weight 1 and the write_fraction mix.
  const std::size_t tenant_count = tenants_.size();
  const std::uint64_t universe = key_sizes_.size();
  const std::size_t replication =
      std::min(std::max<std::size_t>(config_.replication, 1), config_.num_servers);
  const auto replicas = static_cast<double>(replication);

  const double share_sum = synthetic_share_sum();
  if (share_sum == 0) return 0.0;

  const double load_profile_mean =
      config_.load_profile != nullptr
          ? workload::time_average(*config_.load_profile, window_.horizon())
          : 1.0;
  DAS_CHECK(load_profile_mean > 0);

  if (config_.load_calibration == LoadCalibration::kAverageCapacity) {
    double work_per_request = 0;
    for (const Tenant& tenant : tenants_) {
      if (tenant.replay != nullptr) continue;
      const double weight = tenant.share / share_sum;
      const workload::OpMix& mix = tenant.mix;
      // Reads, writes and the catalogue all draw from one distribution.
      const double value_mean = tenant.value_size->mean();
      const double read_work =
          tenant.generator->mean_fanout() * cost_.op_us(value_mean);
      const double update_work = replicas * cost_.op_us(value_mean);
      const double rmw_work = replicas * cost_.rmw_us(2.0 * value_mean);
      work_per_request += weight * (mix.read * read_work +
                                    mix.update * update_work +
                                    mix.rmw * rmw_work);
    }
    return config_.target_load * config_.nominal_capacity(window_.horizon()) /
           (work_per_request * load_profile_mean);
  }

  // Hottest-server calibration: the expected demand share of server s PER
  // OPERATION, summed over every synthetic tenant's popularity law over its
  // slice. Utilisation of s at op rate L is L * share_s / speed_s, so the op
  // rate that puts the hottest server at target_load is
  //   L = target_load / max_s(share_s / speed_s),
  // and the request rate is L over the mean ops per request (a read fans out
  // to its keys, a write to every replica).
  double ops_per_request = 0;
  for (const Tenant& tenant : tenants_) {
    if (tenant.replay != nullptr) continue;
    const workload::OpMix& mix = tenant.mix;
    ops_per_request += tenant.share / share_sum *
                       (mix.read * tenant.generator->mean_fanout() +
                        (mix.update + mix.rmw) * replicas);
  }
  // Reads follow the selection-aware share model (src/select): modes that
  // never leave the primary put a key's whole demand there; every other mode
  // spreads it evenly across the replica set — exact for kRandom, a
  // deliberate approximation for the view-driven modes, which chase the
  // momentarily fastest replica but equalise in the homogeneous steady state
  // this calibration assumes (see EXPERIMENTS.md, "Replica selection").
  // Updates and RMWs land on the whole replica set.
  const bool spread =
      replication > 1 && select::load_share_model(config_.replica_selection) !=
                             select::LoadShareModel::kAllOnPrimary;
  std::vector<double> share(config_.num_servers, 0.0);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const Tenant& tenant = tenants_[t];
    if (tenant.replay != nullptr) continue;
    const workload::MultigetGenerator& gen = *tenant.generator;
    const double weight = tenant.share / share_sum;
    const workload::OpMix& mix = tenant.mix;
    // A tenant without `size:` is priced as if a write kept the key's
    // current size, although it writes a fresh draw from the cluster
    // value-size distribution.
    const double write_mean =
        tenant.own_value_size ? tenant.value_size->mean() : 0.0;
    const double read_scale =
        weight * mix.read * gen.mean_fanout() / ops_per_request;
    const double write_scale = weight / ops_per_request;
    const double write_frac = mix.update + mix.rmw;
    const std::uint64_t slice = tenant_slice(universe, tenant_count, t).size;
    for (std::uint64_t rank = 0; rank < slice; ++rank) {
      const KeyId key = gen.key_for_rank(rank);
      const double pmf = gen.rank_pmf(rank);
      const double key_bytes = static_cast<double>(key_sizes_[key]);
      if (read_scale > 0) {
        const double read_slice = read_scale * pmf * cost_.op_us(key_bytes);
        if (!spread) {
          share[partitioner_->server_for(key)] += read_slice;
        } else {
          const auto reps = partitioner_->replicas_for(key, replication);
          const double each = read_slice / static_cast<double>(reps.size());
          for (const ServerId s : reps) share[s] += each;
        }
      }
      if (write_frac > 0) {
        const double new_bytes = tenant.own_value_size ? write_mean : key_bytes;
        const double write_slice =
            write_scale * pmf *
            (mix.update * cost_.op_us(new_bytes) +
             mix.rmw * cost_.rmw_us(key_bytes + new_bytes));
        for (const ServerId s : partitioner_->replicas_for(key, replication)) {
          share[s] += write_slice;
        }
      }
    }
  }
  double hottest = 0;
  for (std::size_t s = 0; s < config_.num_servers; ++s) {
    hottest = std::max(hottest,
                       share[s] / config_.mean_server_speed(s, window_.horizon()));
  }
  DAS_CHECK(hottest > 0);
  return config_.target_load / (hottest * load_profile_mean) / ops_per_request;
}

void Cluster::check_invariants() const {
  std::uint64_t in_flight = 0;
  for (const auto& client : clients_) in_flight += client->in_flight();
  const RequestCounts counts = metrics_.counts();
  DAS_AUDIT(counts.generated == counts.settled() + in_flight,
            "request conservation violated: generated != completed + failed "
            "+ shed + expired + in flight");
}

template <typename T>
void Cluster::post(Pool<T>& pool, MessageKind kind, net::NodeId from,
                   net::NodeId to, Bytes size, const T& msg) {
  const std::uint32_t index = pool.put(msg);
  const sim::Ticket ticket = static_cast<std::uint32_t>(kind) << kKindShift | index;
  if (!net_->send(from, to, size, ticket)) pool.drop(index);
}

void Cluster::send_op(ServerId server, const sched::OpContext& op) {
  post(op_pool_, MessageKind::kOp, client_node(op.client), server_node(server),
       wire::op_wire_size(op), OpMessage{server, op});
}

void Cluster::send_progress(ClientId client, ServerId server, RequestId request,
                            const sched::ProgressUpdate& update) {
  post(progress_pool_, MessageKind::kProgress, client_node(client),
       server_node(server), wire::progress_wire_size(),
       ProgressMessage{server, request, update});
}

void Cluster::send_response(const OpResponse& resp) {
  post(response_pool_, MessageKind::kResponse, server_node(resp.server),
       client_node(resp.client), wire::response_wire_size(resp), resp);
}

void Cluster::deliver(sim::Ticket ticket) {
  const std::uint32_t index = ticket & kIndexMask;
  switch (static_cast<MessageKind>(ticket >> kKindShift)) {
    case MessageKind::kOp: {
      ++deliveries_.ops;
      const OpMessage msg = op_pool_.take(index);
      servers_[msg.server]->receive_op(msg.op);
      return;
    }
    case MessageKind::kResponse: {
      ++deliveries_.responses;
      const OpResponse resp = response_pool_.take(index);
      clients_[resp.client]->on_response(resp);
      return;
    }
    case MessageKind::kProgress: {
      ++deliveries_.progress;
      const ProgressMessage msg = progress_pool_.take(index);
      servers_[msg.server]->receive_progress(msg.request, msg.update);
      return;
    }
  }
  DAS_CHECK_MSG(false, "ticket of an unknown message kind");
}

void Cluster::set_workload_recorder(workload::ReplayTrace* sink) {
  for (auto& client : clients_) client->set_op_recorder(sink);
}

void Cluster::apply_fault(const fault::FaultEvent& event) {
  const SimTime now = sim_.now();
  switch (event.kind) {
    case fault::FaultKind::kCrash:
      servers_[event.server]->crash();
      break;
    case fault::FaultKind::kRecover:
      servers_[event.server]->recover();
      break;
    case fault::FaultKind::kSlowStart:
      servers_[event.server]->set_fault_slowdown(event.factor);
      break;
    case fault::FaultKind::kSlowEnd:
      servers_[event.server]->set_fault_slowdown(1.0);
      break;
    case fault::FaultKind::kPartition:
    case fault::FaultKind::kHeal: {
      const bool cut = event.kind == fault::FaultKind::kPartition;
      if (event.client == fault::kAllClients) {
        for (std::size_t c = 0; c < clients_.size(); ++c) {
          net_->set_partitioned(client_node(static_cast<ClientId>(c)),
                                server_node(event.server), cut);
        }
      } else {
        net_->set_partitioned(client_node(event.client),
                              server_node(event.server), cut);
      }
      break;
    }
    case fault::FaultKind::kLossStart:
      net_->set_burst_loss(event.factor);
      break;
    case fault::FaultKind::kLossEnd:
      net_->set_burst_loss(0.0);
      break;
  }
  if (tracer_ != nullptr) {
    // trace::FaultTraceKind mirrors fault::FaultKind value-for-value (the
    // trace layer must not depend on the fault library).
    tracer_->fault_event(now, static_cast<trace::FaultTraceKind>(event.kind),
                         event.server, event.factor);
  }
}

ExperimentResult Cluster::run() {
  DAS_CHECK_MSG(!ran_, "Cluster::run is single-shot");
  ran_ = true;

  // Wall-clock (not sim-time) bracket around the run: reports host
  // throughput only, never feeds back into simulation state.
  const auto wall_start = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)
  // Script the fault timeline before workload generation begins; each event
  // is an ordinary simulator event, so faults interleave deterministically
  // with the workload.
  for (const fault::FaultEvent& event : config_.fault_plan.events) {
    sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
  }
  for (auto& client : clients_) client->start(window_.horizon());
  sim_.run();
  // Close the store models' open compaction/stall windows so busy-time
  // accounting covers the whole run (no-op in synthetic mode).
  for (auto& server : servers_) server->finalize_store();
  const auto wall_end = std::chrono::steady_clock::now();  // NOLINT(das-no-wallclock)

  ExperimentResult result;
  result.rct = metrics_.rct().summary();
  result.op_latency = metrics_.op_latency().summary();
  result.op_wait = metrics_.op_wait().summary();
  for (const auto& client : clients_) {
    result.requests_shed_admission += client->requests_shed_admission();
    result.requests_completed_after_failover +=
        client->requests_completed_after_failover();
    result.ops_generated += client->ops_generated();
    result.ops_retransmitted += client->ops_retransmitted();
    result.duplicate_responses += client->duplicate_responses();
    result.ops_hedged += client->ops_hedged();
    result.ops_failed_over += client->ops_failed_over();
    result.ops_abandoned += client->ops_abandoned();
    result.suspicions_raised += client->suspicions_raised();
    result.progress_messages += client->progress_sent();
    DAS_CHECK_MSG(client->in_flight() == 0, "request leaked past drain");
  }
  // Graceful degradation, not silent loss: every generated request is either
  // completed or explicitly accounted as failed, shed (overload rejection)
  // or expired (end-to-end deadline) — and as the tenant that generated it,
  // never as a neighbour. The cluster totals are the sums over tenants.
  for (std::size_t t = 0; t < metrics_.tenant_count(); ++t) {
    const RequestCounts& counts = metrics_.tenant_counts(t);
    DAS_CHECK_MSG(counts.generated == counts.settled(),
                  "per-tenant request conservation violated");
  }
  const RequestCounts counts = metrics_.counts();
  const RequestCounts measured = metrics_.measured();
  fill_request_counts(result, counts, measured);
  // Only declared tenants are reported; the implicit default tenant is the
  // cluster total itself.
  if (!config_.tenants.empty()) {
    result.tenants.resize(config_.tenants.size());
    for (std::size_t t = 0; t < result.tenants.size(); ++t) {
      TenantOutcome& outcome = result.tenants[t];
      outcome.name = config_.tenants[t].name;
      outcome.share = config_.tenants[t].share;
      fill_request_counts(outcome, metrics_.tenant_counts(t),
                          metrics_.tenant_measured(t));
      outcome.rct = metrics_.tenant_rct(t).summary();
      // Degradation share: the tenant's fraction of the cluster's measured
      // goodput — the number E22 reads to see WHO keeps completing under
      // overload (per-tenant admission floors are about exactly this).
      outcome.goodput_share =
          measured.completed == 0
              ? 0.0
              : static_cast<double>(outcome.requests_measured) /
                    static_cast<double>(measured.completed);
    }
    // Jain fairness over per-tenant mean RCT: 1.0 = all tenants see the same
    // mean, 1/n = one tenant absorbs all the latency. Tenants with no
    // measured requests are excluded; fewer than two leaves J = 1.
    double sum = 0, sum_sq = 0;
    std::size_t n = 0;
    for (const TenantOutcome& outcome : result.tenants) {
      if (outcome.requests_measured == 0) continue;
      const double mean = outcome.rct.mean;
      sum += mean;
      sum_sq += mean * mean;
      ++n;
    }
    result.jain_fairness =
        n >= 2 && sum_sq > 0 ? (sum * sum) / (static_cast<double>(n) * sum_sq)
                             : 1.0;
  }
  double util_sum = 0;
  for (const auto& server : servers_) {
    result.ops_completed += server->ops_completed();
    result.ops_dropped_crashed += server->ops_dropped();
    result.ops_rejected_busy += server->ops_rejected_busy();
    result.ops_shed_sojourn += server->ops_shed_sojourn();
    result.ops_expired_dropped += server->ops_expired();
    result.wasted_service_us += server->wasted_service_us();
    result.server_crashes += server->crashes();
    result.server_recoveries += server->recoveries();
    const double util = server->busy_time_in_window() / window_.measure_us;
    util_sum += util;
    result.max_server_utilization = std::max(result.max_server_utilization, util);
    const sched::MechanismCounters counters =
        server->scheduler().mechanism_counters();
    result.ops_deferred += counters.ops_deferred;
    result.ops_resumed += counters.ops_resumed;
    result.ops_aged += counters.ops_aged;
    result.reranks_applied += counters.reranks_applied;
    if (const store::LsmModel* lsm = server->lsm()) {
      const store::StoreModelStats& st = lsm->stats();
      result.store_flushes += st.flushes;
      result.store_compactions += st.compactions;
      result.store_write_stalls += st.write_stalls;
      result.store_stalled_write_ops += st.stalled_write_ops;
      result.store_memtable_hits += st.memtable_hits;
      result.store_level_reads += st.level_reads;
      result.store_compaction_busy_us += st.compaction_busy_us;
      result.store_write_stall_us += st.write_stall_us;
    }
  }
  result.breakdown = metrics_.breakdown().summary();
  if (config_.msg_loss_probability == 0 && config_.retry_timeout_us == 0 &&
      config_.hedge_delay_us == 0 && !config_.fault_plan.loses_work() &&
      !config_.overload.enabled()) {
    // Exact conservation without faults. With retransmission enabled,
    // spurious retries (RTO shorter than a queueing spike) can be served
    // more than once even at zero loss, and the overload layer sheds ops by
    // design, so the request-level check above (every request settled) is
    // the meaningful invariant there.
    DAS_CHECK_MSG(result.ops_generated == result.ops_completed,
                  "operation conservation violated");
  }
  result.mean_server_utilization = util_sum / static_cast<double>(servers_.size());
  result.availability =
      counts.settled() == 0 ? 1.0
                            : static_cast<double>(counts.completed) /
                                  static_cast<double>(counts.settled());
  // Goodput vs throughput over the measure window: goodput counts only
  // completed-in-time requests, throughput every settled one. A protected
  // cluster under overload shows throughput >> goodput on the unprotected
  // baseline flipping to goodput ~= capacity with the excess shed cheaply.
  const double measure_seconds = window_.measure_us / 1e6;
  result.goodput_rps = static_cast<double>(measured.completed) / measure_seconds;
  result.throughput_rps =
      static_cast<double>(measured.settled()) / measure_seconds;
  result.net_messages = net_->stats().messages_sent;
  result.net_messages_dropped = net_->stats().messages_dropped;
  result.net_messages_dropped_partition =
      net_->stats().messages_dropped_partition;
  result.net_bytes = net_->stats().bytes_sent;
  result.sim_duration_us = sim_.now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

}  // namespace das::core
