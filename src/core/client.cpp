#include "core/client.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/flat_map.hpp"

namespace das::core {

namespace {

std::vector<Client::TenantStream> single_stream(
    const workload::MultigetGenerator& generator, workload::ArrivalPtr arrivals) {
  std::vector<Client::TenantStream> tenants(1);
  tenants[0].generator = &generator;
  tenants[0].arrivals = std::move(arrivals);
  return tenants;
}

/// Every server answers reads from the shared size catalogue, so a selector
/// answer outside the key's replica set would not miss: it would silently
/// serve a size that the replicas' completed writes have replaced.
ServerId checked_pick(const std::vector<ServerId>& replicas, ServerId picked) {
  DAS_CHECK_MSG(std::find(replicas.begin(), replicas.end(), picked) != replicas.end(),
                "replica selector picked a server outside the key's replica set");
  return picked;
}

}  // namespace

Client::Client(sim::Simulator& sim, Params params, Rng rng,
               std::vector<TenantStream> tenants,
               const store::Partitioner& partitioner,
               std::vector<Bytes>& key_sizes, Metrics& metrics, SendOp send_op,
               SendProgress send_progress)
    : sim_(sim),
      params_(params),
      rng_(rng),
      tenants_(std::move(tenants)),
      partitioner_(partitioner),
      key_sizes_(key_sizes),
      metrics_(metrics),
      send_op_(std::move(send_op)),
      send_progress_(std::move(send_progress)),
      // Fork the jitter stream off a COPY so the workload stream of rng_ is
      // untouched: runs without retries stay bit-identical to older builds.
      // Seeded in the init list — retry_rng_ is never default-constructed
      // (das-rng-discipline).
      retry_rng_(Rng{rng_}.fork(0xBAC0FFull + params_.id)),
      // Admission coin flips get their own stream for the same reason: a run
      // with admission off draws nothing from it and stays bit-identical.
      admission_rng_(Rng{rng_}.fork(0xADC0DEull + params_.id)) {
  DAS_CHECK(params_.num_servers >= 1);
  DAS_CHECK(params_.num_clients >= 1);
  DAS_CHECK(!tenants_.empty());
  for (const TenantStream& tenant : tenants_) {
    if (tenant.replay != nullptr) {
      DAS_CHECK_MSG(tenant.generator == nullptr && tenant.arrivals == nullptr,
                    "a replay tenant takes its stream from the trace");
    } else {
      DAS_CHECK(tenant.generator != nullptr);
      DAS_CHECK(tenant.arrivals != nullptr);
    }
  }
  DAS_CHECK(send_op_ != nullptr);
  DAS_CHECK(send_progress_ != nullptr);
  DAS_CHECK(params_.ewma_alpha > 0 && params_.ewma_alpha <= 1);
  // Tenants past the first get their own workload streams, forked off COPIES
  // so neither rng_ nor the single-tenant draw sequence is perturbed.
  extra_tenant_rngs_.reserve(tenants_.size() - 1);
  for (std::size_t t = 1; t < tenants_.size(); ++t) {
    extra_tenant_rngs_.push_back(
        Rng{rng_}.fork(0x7E4A0000ull + t * 0x10001ull + params_.id));
  }
  tenant_generated_.assign(tenants_.size(), 0);
  tenant_completed_.assign(tenants_.size(), 0);
  tenant_failed_.assign(tenants_.size(), 0);
  tenant_shed_.assign(tenants_.size(), 0);
  tenant_expired_.assign(tenants_.size(), 0);
  if (params_.overload.admission) {
    admission_ = std::make_unique<overload::AdmissionController>(
        tenants_.size(),
        overload::AdmissionController::Params{params_.overload.admission_floor,
                                              params_.overload.admission_increase,
                                              params_.overload.admission_decrease});
  }
  d_est_.assign(params_.num_servers, 0.0);
  mu_est_.assign(params_.num_servers, 1.0);
  selector_ = select::make_selector(params_.replica_selection);
  rto_strikes_.assign(params_.num_servers, 0);
  suspected_.assign(params_.num_servers, 0);
}

Client::Client(sim::Simulator& sim, Params params, Rng rng,
               const workload::MultigetGenerator& generator,
               workload::ArrivalPtr arrivals, const store::Partitioner& partitioner,
               std::vector<Bytes>& key_sizes, Metrics& metrics, SendOp send_op,
               SendProgress send_progress)
    : Client(sim, params, rng, single_stream(generator, std::move(arrivals)),
             partitioner, key_sizes, metrics, std::move(send_op),
             std::move(send_progress)) {}

void Client::start(SimTime horizon) {
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (tenants_[t].replay != nullptr) {
      schedule_replay(t, params_.id % params_.num_clients, horizon);
    } else {
      schedule_next_arrival(t, horizon);
    }
  }
}

void Client::schedule_next_arrival(std::size_t tenant, SimTime horizon) {
  const SimTime next =
      tenants_[tenant].arrivals->next_arrival_after(sim_.now(), tenant_rng(tenant));
  if (next >= horizon) return;
  sim_.schedule_at(next, [this, tenant, horizon] {
    generate_request(tenant);
    schedule_next_arrival(tenant, horizon);
  });
}

void Client::schedule_replay(std::size_t tenant, std::size_t index,
                             SimTime horizon) {
  const auto& records = tenants_[tenant].replay->records;
  if (index >= records.size()) return;
  const workload::ReplayRecord& rec = records[index];
  if (rec.timestamp_us >= horizon) return;
  // Chain-schedule one record at a time (like the synthetic arrival chain)
  // so the event heap holds one pending arrival per stream, not the file.
  sim_.schedule_at(rec.timestamp_us, [this, tenant, index, horizon] {
    generate_replay_request(tenant, index);
    schedule_replay(tenant, index + params_.num_clients, horizon);
  });
}

double Client::op_demand_us(KeyId key) const {
  DAS_CHECK(key < key_sizes_.size());
  return params_.per_op_overhead_us +
         static_cast<double>(key_sizes_[key]) / params_.service_bytes_per_us;
}

double Client::service_estimate_us(ServerId server, double demand) const {
  const double mu = params_.adaptive ? mu_est_[server] : 1.0;
  return demand / mu;
}

SimTime Client::full_estimate(SimTime now, ServerId server, double demand) const {
  const double d = params_.adaptive ? d_est_[server] : 0.0;
  return now + params_.est_rtt_us + d + service_estimate_us(server, demand);
}

select::LearnedView Client::learned_view() const {
  select::LearnedView view;
  view.d_est = &d_est_;
  view.mu_est = &mu_est_;
  view.suspected = &suspected_;
  view.est_rtt_us = params_.est_rtt_us;
  view.adaptive = params_.adaptive;
  return view;
}

ServerId Client::pick_server(KeyId key, double demand) {
  if (params_.replication <= 1) return partitioner_.server_for(key);
  const std::vector<ServerId> replicas =
      partitioner_.replicas_for(key, params_.replication);
  // The selector draws (if it draws at all) from the client's own workload
  // stream — exactly the pre-layer behaviour, so legacy modes stay
  // bit-identical (pinned by GoldenResults.PinnedSelectionGridIsBitExact).
  return checked_pick(replicas, selector_->pick(replicas, learned_view(),
                                               {demand, key, sim_.now()}, rng_));
}

void Client::generate_request(std::size_t tenant) {
  const SimTime now = sim_.now();
  const TenantStream& stream = tenants_[tenant];
  Rng& rng = tenant_rng(tenant);

  // Plan the request's operations: a multiget fan-out (one GET per distinct
  // key at its chosen replica), a single-key write-all PUT (one op per
  // replica), or a read-modify-write (write-all whose per-replica demand
  // covers reading the old value plus writing the new one).
  std::vector<PlannedOp> plan;
  bool is_write = false;
  bool is_rmw = false;
  if (stream.has_mix) {
    const workload::OpKind kind = stream.mix.sample(rng);
    is_write = kind != workload::OpKind::kRead;
    is_rmw = kind == workload::OpKind::kRmw;
  } else {
    // Legacy draw order: the Bernoulli is only consumed when write_fraction
    // is set, keeping read-only runs bit-identical to pre-mix builds.
    is_write = params_.write_fraction > 0 && rng.chance(params_.write_fraction);
  }
  if (is_write) {
    const KeyId key = stream.generator->sample_key(rng, now);
    const Bytes old_size = key_sizes_[key];
    const RealDistPtr& write_dist =
        stream.write_size_bytes ? stream.write_size_bytes : params_.write_size_bytes;
    const Bytes new_size =
        write_dist ? static_cast<Bytes>(
                         std::max(1.0, std::round(write_dist->sample(rng))))
                   : old_size;
    // The writer knows the size it is writing; publish it to the shared
    // catalogue so demand estimates track the store's contents.
    key_sizes_[key] = new_size;
    const double demand =
        is_rmw ? 2.0 * params_.per_op_overhead_us +
                     static_cast<double>(old_size + new_size) /
                         params_.service_bytes_per_us
               : params_.per_op_overhead_us +
                     static_cast<double>(new_size) / params_.service_bytes_per_us;
    if (recorder_ != nullptr) {
      recorder_->records.push_back(
          {now, workload::ReplayOp::kWrite, key, new_size});
    }
    for (const ServerId server :
         partitioner_.replicas_for(key, std::max<std::size_t>(params_.replication, 1))) {
      plan.emplace_back(key, server, demand, true, new_size);
    }
  } else {
    const workload::MultigetSpec spec = stream.generator->generate(rng, now);
    DAS_CHECK(!spec.keys.empty());
    plan.reserve(spec.keys.size());
    for (const KeyId key : spec.keys) {
      const double demand = op_demand_us(key);
      if (recorder_ != nullptr) {
        recorder_->records.push_back(
            {now, workload::ReplayOp::kRead, key, key_sizes_[key]});
      }
      plan.emplace_back(key, pick_server(key, demand), demand, false, 0);
    }
  }
  dispatch_plan(tenant, plan);
}

void Client::generate_replay_request(std::size_t tenant, std::size_t index) {
  const SimTime now = sim_.now();
  const workload::ReplayRecord& rec = tenants_[tenant].replay->records[index];
  DAS_CHECK_MSG(rec.key < key_sizes_.size(),
                "replay record references a key outside the keyspace");
  std::vector<PlannedOp> plan;
  if (rec.op == workload::ReplayOp::kWrite) {
    const Bytes new_size = rec.size_bytes > 0 ? rec.size_bytes : key_sizes_[rec.key];
    key_sizes_[rec.key] = new_size;
    const double demand =
        params_.per_op_overhead_us +
        static_cast<double>(new_size) / params_.service_bytes_per_us;
    if (recorder_ != nullptr) {
      recorder_->records.push_back(
          {now, workload::ReplayOp::kWrite, rec.key, new_size});
    }
    for (const ServerId server : partitioner_.replicas_for(
             rec.key, std::max<std::size_t>(params_.replication, 1))) {
      plan.emplace_back(rec.key, server, demand, true, new_size);
    }
  } else {
    // The trace's size is authoritative for the key's catalogued size: the
    // replayed store serves what the traced store served.
    if (rec.size_bytes > 0) key_sizes_[rec.key] = rec.size_bytes;
    const double demand = op_demand_us(rec.key);
    if (recorder_ != nullptr) {
      recorder_->records.push_back(
          {now, workload::ReplayOp::kRead, rec.key, key_sizes_[rec.key]});
    }
    plan.emplace_back(rec.key, pick_server(rec.key, demand), demand, false, 0);
  }
  dispatch_plan(tenant, plan);
}

void Client::dispatch_plan(std::size_t tenant, const std::vector<PlannedOp>& plan) {
  const SimTime now = sim_.now();
  const RequestId rid =
      (static_cast<RequestId>(params_.id) << 48) | next_request_seq_++;

  // Admission gate, AFTER the plan is built: the tenant's workload stream
  // draws identically whether or not the request is admitted, so throttling
  // never desynchronises the generated traffic across configs.
  if (admission_ != nullptr && !admission_->admit(tenant, admission_rng_)) {
    metrics_.record_request_shed(now, now, static_cast<std::uint32_t>(tenant));
    if (tracer_ != nullptr) {
      tracer_->request_shed(now, rid, params_.id, /*age_us=*/0.0,
                            /*at_admission=*/true);
    }
    ++requests_shed_;
    ++requests_shed_admission_;
    ++tenant_shed_[tenant];
    ++requests_generated_;
    ++tenant_generated_[tenant];
    return;
  }

  PendingRequest pending;
  pending.arrival = now;
  pending.tenant = static_cast<std::uint32_t>(tenant);
  if (params_.overload.deadlines()) {
    pending.expiry = now + params_.overload.deadline_budget_us;
  }
  const SimTime expiry = pending.expiry;
  pending.ops.reserve(plan.size());

  // Per-server aggregates: (op count, demand sum) for the Rein bottleneck
  // tags, plus the per-server max full-completion estimate for the DAS
  // deferral bounds.
  struct ServerAgg {
    std::uint32_t ops = 0;
    double demand = 0;
    SimTime max_full_estimate = 0;
  };
  // FlatMap, not unordered_map: only max/sum aggregation below, so iteration
  // order cannot leak into results — but FlatMap's order is at least
  // deterministic across standard libraries.
  FlatMap<ServerId, ServerAgg> per_server;
  double total_demand = 0;
  double critical_us = 0;
  for (const PlannedOp& planned : plan) {
    auto& agg = per_server[planned.server];
    ++agg.ops;
    agg.demand += planned.demand;
    agg.max_full_estimate = std::max(
        agg.max_full_estimate, full_estimate(now, planned.server, planned.demand));
    total_demand += planned.demand;
    critical_us =
        std::max(critical_us, service_estimate_us(planned.server, planned.demand));

    PendingOp op;
    op.op_id = (static_cast<OperationId>(params_.id) << 48) | next_op_seq_++;
    op.server = planned.server;
    op.key = planned.key;
    op.demand_us = planned.demand;
    op.sent_ctx.is_write = planned.is_write;
    op.sent_ctx.write_size = planned.write_size;
    pending.ops.push_back(op);
  }
  std::uint32_t bottleneck_ops = 0;
  double bottleneck_demand = 0;
  for (const auto& [server, agg] : per_server) {
    bottleneck_ops = std::max(bottleneck_ops, agg.ops);
    bottleneck_demand = std::max(bottleneck_demand, agg.demand);
  }

  pending.remaining = pending.ops.size();
  pending.last_sent_critical = critical_us;
  pending.last_sent_total = total_demand;

  if (tracer_ != nullptr) {
    tracer_->request_arrival(now, rid, params_.id, pending.ops.size());
  }

  for (PendingOp& op : pending.ops) {
    // Deferral bound: the latest completion estimate among siblings on
    // servers other than this op's.
    SimTime est_other = 0;
    for (const auto& [server, agg] : per_server) {
      if (server == op.server) continue;
      est_other = std::max(est_other, agg.max_full_estimate);
    }

    sched::OpContext ctx;
    ctx.op_id = op.op_id;
    ctx.request_id = rid;
    ctx.client = params_.id;
    ctx.key = op.key;
    ctx.demand_us = op.demand_us;
    ctx.request_arrival = now;
    ctx.remaining_critical_us = critical_us;
    ctx.est_other_completion = est_other;
    ctx.bottleneck_ops = bottleneck_ops;
    ctx.bottleneck_demand_us = bottleneck_demand;
    ctx.total_demand_us = total_demand;
    ctx.deadline = now + params_.edf_slo_us;
    ctx.expiry = expiry;
    ctx.is_write = op.sent_ctx.is_write;
    ctx.write_size = op.sent_ctx.write_size;
    op_to_request_.emplace(op.op_id, rid);
    op.sent_ctx = ctx;
    send_op_(op.server, ctx);
    ++ops_generated_;
    if (tracer_ != nullptr) {
      tracer_->op_send(now, op.op_id, rid, params_.id, op.server, op.demand_us,
                       /*resend=*/false);
    }
  }
  auto [it, inserted] = pending_.emplace(rid, std::move(pending));
  DAS_CHECK(inserted);
  for (PendingOp& op : it->second.ops) {
    if (params_.retry_timeout_us > 0) arm_retry(rid, op);
    // Writes already fan out to every replica; hedging applies to reads.
    if (params_.hedge_delay_us > 0 && params_.replication >= 2 &&
        !op.sent_ctx.is_write) {
      arm_hedge(rid, op);
    }
  }
  if (params_.overload.deadlines()) {
    // The deadline is enforced client-side by a timer, not by waiting for
    // servers to report expiry: a request stuck behind a dead or saturated
    // server fails at exactly arrival + budget no matter what.
    it->second.deadline_timer =
        sim_.schedule_at(expiry, [this, rid] { expire_request(rid); });
  }
  ++requests_generated_;
  ++tenant_generated_[tenant];
}

void Client::expire_request(RequestId rid) {
  const auto req_it = pending_.find(rid);
  // The timer is cancelled whenever the request settles first; a find miss
  // can only mean a stale timer raced settlement in the same instant.
  if (req_it == pending_.end()) return;
  PendingRequest& req = req_it->second;
  const SimTime now = sim_.now();
  // Tear down every op still in flight. A response (including a server-side
  // kExpired shed, which by time ordering always arrives after this timer)
  // lands in the unknown-op path and discards as a duplicate.
  for (PendingOp& op : req.ops) {
    if (op.done) continue;
    op.done = true;
    sim_.cancel(op.retry_timer);
    sim_.cancel(op.hedge_timer);
    op_to_request_.erase(op.op_id);
  }
  if (admission_ != nullptr) admission_->on_overload(req.tenant);
  metrics_.record_request_expired(req.arrival, now, req.tenant);
  if (tracer_ != nullptr) {
    tracer_->request_expired(now, rid, params_.id, now - req.arrival);
  }
  ++tenant_expired_[req.tenant];
  ++requests_expired_;
  pending_.erase(req_it);
}

void Client::arm_hedge(RequestId rid, PendingOp& op) {
  const OperationId op_id = op.op_id;
  op.hedge_timer = sim_.schedule_after(params_.hedge_delay_us, [this, rid, op_id] {
    const auto req_it = pending_.find(rid);
    if (req_it == pending_.end()) return;
    auto& ops = req_it->second.ops;
    const auto it = std::find_if(ops.begin(), ops.end(), [&](const PendingOp& o) {
      return o.op_id == op_id;
    });
    if (it == ops.end() || it->done || it->hedged) return;
    // Pick the best OTHER replica under the current learned view. Hedging to
    // a suspected replica only doubles the load on a host that is not
    // answering, so pick_alternate skips suspects.
    const auto replicas = partitioner_.replicas_for(it->key, params_.replication);
    const ServerId alternate = selector_->pick_alternate(
        replicas, learned_view(), {it->demand_us, it->key, sim_.now()},
        it->server);
    if (alternate == kInvalidServer) return;  // no distinct live replica
    checked_pick(replicas, alternate);
    it->hedged = true;
    ++ops_hedged_;
    send_op_(alternate, it->sent_ctx);
    if (tracer_ != nullptr) {
      tracer_->op_send(sim_.now(), op_id, rid, params_.id, alternate,
                       it->demand_us, /*resend=*/true);
    }
  });
}

void Client::arm_retry(RequestId rid, PendingOp& op) {
  // Exponential backoff: timeout doubles with each attempt, bounded by the
  // configured cap, with ±20% jitter so clients whose ops died in the same
  // loss burst (or crash) do not retransmit in lockstep.
  Duration timeout =
      params_.retry_timeout_us * static_cast<double>(1u << std::min(op.attempts - 1,
                                                                    10u));
  if (params_.retry_backoff_max_us > 0) {
    timeout = std::min(timeout, params_.retry_backoff_max_us);
  }
  timeout *= retry_rng_.uniform(0.8, 1.2);
  const OperationId op_id = op.op_id;
  op.retry_timer = sim_.schedule_after(timeout, [this, rid, op_id] {
    const auto req_it = pending_.find(rid);
    if (req_it == pending_.end()) return;
    auto& ops = req_it->second.ops;
    const auto it = std::find_if(ops.begin(), ops.end(), [&](const PendingOp& o) {
      return o.op_id == op_id;
    });
    if (it == ops.end() || it->done) return;
    // Failure detection: one more consecutive unanswered timeout against
    // this server.
    note_rto(it->server);
    if (params_.retry_max_attempts > 0 &&
        it->attempts >= params_.retry_max_attempts) {
      abandon_op(rid, *it);
      return;
    }
    ++it->attempts;
    ++ops_retransmitted_;
    maybe_fail_over(req_it->second, *it);
    send_op_(it->server, it->sent_ctx);
    if (tracer_ != nullptr) {
      tracer_->op_send(sim_.now(), op_id, rid, params_.id, it->server,
                       it->demand_us, /*resend=*/true);
    }
    arm_retry(rid, *it);
  });
}

void Client::note_rto(ServerId server) {
  if (params_.suspicion_rto_threshold == 0) return;
  ++rto_strikes_[server];
  if (suspected_[server] == 0 &&
      rto_strikes_[server] >= params_.suspicion_rto_threshold) {
    suspected_[server] = 1;
    ++suspicions_raised_;
  }
}

void Client::maybe_fail_over(PendingRequest& req, PendingOp& op) {
  // Writes are fanned out to every replica already — a write retry must keep
  // hammering its own replica. Reads can move.
  if (params_.replication < 2 || op.sent_ctx.is_write) return;
  if (suspected_[op.server] == 0) return;
  const auto replicas = partitioner_.replicas_for(op.key, params_.replication);
  const ServerId best = selector_->pick_alternate(
      replicas, learned_view(), {op.demand_us, op.key, sim_.now()}, op.server);
  if (best == kInvalidServer) return;  // every replica suspected: keep trying
  op.server = checked_pick(replicas, best);
  ++ops_failed_over_;
  req.failed_over = true;
}

void Client::abandon_op(RequestId rid, PendingOp& op) {
  // The retry budget is spent: declare the op failed so the request leaves
  // the books as FAILED rather than hanging in flight forever. A straggler
  // response arriving later is discarded as a duplicate. If the server's
  // last word on this op was BUSY, the exhaustion is the overload layer's
  // doing and the op counts as shed instead.
  op.done = true;
  sim_.cancel(op.hedge_timer);
  op_to_request_.erase(op.op_id);
  ++ops_abandoned_;
  const auto req_it = pending_.find(rid);
  DAS_CHECK(req_it != pending_.end());
  PendingRequest& req = req_it->second;
  if (op.busy_rejected) {
    ++req.shed_ops;
  } else {
    ++req.failed_ops;
  }
  DAS_CHECK(req.remaining > 0);
  --req.remaining;
  if (req.remaining == 0) finalize_degraded(rid);
}

void Client::shed_op(RequestId rid, PendingOp& op) {
  // BUSY with no retry machinery to lean on: the op is terminally shed.
  op.done = true;
  sim_.cancel(op.retry_timer);
  sim_.cancel(op.hedge_timer);
  op_to_request_.erase(op.op_id);
  const auto req_it = pending_.find(rid);
  DAS_CHECK(req_it != pending_.end());
  PendingRequest& req = req_it->second;
  ++req.shed_ops;
  DAS_CHECK(req.remaining > 0);
  --req.remaining;
  if (req.remaining == 0) finalize_degraded(rid);
}

void Client::finalize_degraded(RequestId rid) {
  const auto req_it = pending_.find(rid);
  DAS_CHECK(req_it != pending_.end());
  PendingRequest& req = req_it->second;
  DAS_CHECK(req.remaining == 0);
  DAS_CHECK(req.shed_ops > 0 || req.failed_ops > 0);
  const SimTime now = sim_.now();
  sim_.cancel(req.deadline_timer);
  if (req.shed_ops > 0) {
    // Shed outranks failed: an overload rejection is load the system chose
    // to turn away, not a fault — the distinction is what E22 measures.
    metrics_.record_request_shed(req.arrival, now, req.tenant);
    if (tracer_ != nullptr) {
      tracer_->request_shed(now, rid, params_.id, now - req.arrival,
                            /*at_admission=*/false);
    }
    ++tenant_shed_[req.tenant];
    ++requests_shed_;
  } else {
    metrics_.record_request_failure(req.arrival, now, req.tenant);
    if (tracer_ != nullptr) {
      tracer_->request_complete(now, rid, params_.id, now - req.arrival);
    }
    ++tenant_failed_[req.tenant];
    ++requests_failed_;
  }
  pending_.erase(req_it);
}

void Client::on_shed_response(const OpResponse& resp, RequestId rid) {
  const auto req_it = pending_.find(rid);
  DAS_CHECK_MSG(req_it != pending_.end(), "shed response for settled request");
  PendingRequest& req = req_it->second;
  const auto pop =
      std::find_if(req.ops.begin(), req.ops.end(),
                   [&](const PendingOp& op) { return op.op_id == resp.op_id; });
  DAS_CHECK(pop != req.ops.end());
  DAS_CHECK_MSG(!pop->done, "shed response for settled op");
  // Every BUSY is an overload signal for the AIMD throttle, whether or not
  // the op survives via retry.
  if (admission_ != nullptr) admission_->on_overload(req.tenant);
  if (params_.retry_timeout_us > 0) {
    // The retry timer armed at send is still running: the retransmission
    // path (backoff, jitter, failover, give-up budget) handles the redo.
    // The explicit BUSY just told us sooner than silence would have.
    pop->busy_rejected = true;
    return;
  }
  shed_op(rid, *pop);
}

void Client::on_response(const OpResponse& resp) {
  const SimTime now = sim_.now();

  // Any response — including a duplicate — clears the server's failure
  // suspicion: the streak of consecutive unanswered timeouts is broken.
  rto_strikes_[resp.server] = 0;
  suspected_[resp.server] = 0;

  const auto op_it = op_to_request_.find(resp.op_id);
  if (op_it == op_to_request_.end()) {
    // With retransmission or hedging enabled, a second copy of a served op
    // yields a duplicate response; with the overload layer on, a server-side
    // shed of an already-settled request lands here too (a kExpired shed
    // ALWAYS does: the client's own deadline timer fires strictly first).
    // Otherwise it is a protocol bug. The duplicate stays a pure liveness
    // signal: the EWMA update below must NOT run, or each redundant answer
    // double-applies the same piggyback and skews the learned view.
    DAS_CHECK_MSG(params_.retry_timeout_us > 0 || params_.hedge_delay_us > 0 ||
                      params_.overload.enabled(),
                  "response for unknown op");
    ++duplicate_responses_;
    return;
  }
  if (params_.adaptive) {
    // Applies to BUSY responses too: the piggybacked d_hat/mu_hat are real —
    // explicit rejection feeding the learned view is what steers subsequent
    // picks away from the saturated server.
    d_est_[resp.server] +=
        params_.ewma_alpha * (resp.d_hat_us - d_est_[resp.server]);
    mu_est_[resp.server] +=
        params_.ewma_alpha * (resp.mu_hat - mu_est_[resp.server]);
  }
  const RequestId rid = op_it->second;
  if (resp.status != OpStatus::kOk) {
    // The op was shed server-side; it is still pending (the mapping stays
    // while the retry path may yet rescue it).
    on_shed_response(resp, rid);
    return;
  }
  op_to_request_.erase(op_it);

  const auto req_it = pending_.find(rid);
  DAS_CHECK_MSG(req_it != pending_.end(), "response for completed request");
  PendingRequest& req = req_it->second;

  const auto pop = std::find_if(req.ops.begin(), req.ops.end(),
                                [&](const PendingOp& op) { return op.op_id == resp.op_id; });
  DAS_CHECK(pop != req.ops.end());
  DAS_CHECK_MSG(!pop->done, "duplicate response");
  pop->done = true;
  pop->delivered_at = now;
  pop->timing = resp.timing;
  sim_.cancel(pop->retry_timer);
  sim_.cancel(pop->hedge_timer);
  DAS_CHECK(req.remaining > 0);
  --req.remaining;
  if (tracer_ != nullptr) {
    tracer_->response(now, resp.op_id, rid, params_.id, resp.server);
  }

  if (req.remaining == 0) {
    if (req.shed_ops > 0 || req.failed_ops > 0) {
      // A sibling op was shed or abandoned earlier: the request is degraded
      // as a whole even though this last op did get served. Its latency must
      // not enter the RCT population.
      finalize_degraded(rid);
      return;
    }
    sim_.cancel(req.deadline_timer);
    if (admission_ != nullptr) admission_->on_success(req.tenant);
    metrics_.record_request(req.arrival, now, req.ops.size(), req.tenant);
    if (req.failed_over) ++requests_completed_failover_;
    if (tracer_ != nullptr) {
      tracer_->request_complete(now, rid, params_.id, now - req.arrival);
    }
    // The critical op is the one whose response completed the request; its
    // siblings' idle tails since delivery form the straggler slack.
    if (breakdown_ != nullptr && pop->timing.valid) {
      double slack_sum = 0;
      for (const PendingOp& op : req.ops) {
        if (op.op_id == pop->op_id) continue;
        slack_sum += now - op.delivered_at;
      }
      breakdown_->record(trace::make_request_breakdown(
          req.arrival, now, pop->timing, slack_sum, req.ops.size()));
    }
    ++tenant_completed_[req.tenant];
    pending_.erase(req_it);
    ++requests_completed_;
    return;
  }

  if (!params_.progress_updates) return;

  // Recompute the scheduling estimates from the surviving ops under the
  // *current* per-server view and propagate when the critical path moved
  // enough to change scheduling decisions.
  double new_critical = 0;
  double remaining_demand = 0;
  // Iteration order below decides the order progress updates hit the
  // network (event sequence numbers!), so this must NOT be an unordered
  // container: libstdc++ and libc++ would send in different orders and
  // produce different results. First-touch order — the order ops appear in
  // the request — is deterministic everywhere. A request touches few
  // distinct servers (fan-out mean 8), so the linear scan is cheap.
  std::vector<std::pair<ServerId, SimTime>> server_max_full;
  for (const PendingOp& op : req.ops) {
    if (op.done) continue;
    remaining_demand += op.demand_us;
    new_critical =
        std::max(new_critical, service_estimate_us(op.server, op.demand_us));
    const auto slot = std::find_if(
        server_max_full.begin(), server_max_full.end(),
        [&](const auto& entry) { return entry.first == op.server; });
    const SimTime est = full_estimate(now, op.server, op.demand_us);
    if (slot == server_max_full.end()) {
      server_max_full.emplace_back(op.server, est);
    } else {
      slot->second = std::max(slot->second, est);
    }
  }
  // Send when either the critical path (DAS's key) or the total remaining
  // (ReqSRPT's key) moved by more than the threshold, relative to its last
  // sent value.
  const bool critical_moved =
      std::abs(new_critical - req.last_sent_critical) >=
      params_.progress_threshold * std::max(req.last_sent_critical, 1.0);
  const bool total_moved =
      std::abs(remaining_demand - req.last_sent_total) >=
      params_.progress_threshold * std::max(req.last_sent_total, 1.0);
  if (!critical_moved && !total_moved) return;
  req.last_sent_critical = new_critical;
  req.last_sent_total = remaining_demand;
  // One update per distinct server still holding pending ops; the deferral
  // bound is per destination (max full estimate over the OTHER servers).
  for (const auto& [server, unused] : server_max_full) {
    (void)unused;
    SimTime est_other = 0;
    for (const auto& [other, est] : server_max_full) {
      if (other == server) continue;
      est_other = std::max(est_other, est);
    }
    sched::ProgressUpdate update;
    update.remaining_critical_us = new_critical;
    update.est_other_completion = est_other;
    update.remaining_total_us = remaining_demand;
    send_progress_(server, rid, update);
    ++progress_sent_;
  }
}

}  // namespace das::core
