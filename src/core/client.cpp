#include "core/client.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/flat_map.hpp"

namespace das::core {

namespace {

/// Every op carries its key's catalogue size, so a selector answer outside
/// the key's replica set would not miss: it would silently serve a size that
/// the replicas' completed writes have replaced.
ServerId checked_pick(const std::vector<ServerId>& replicas, ServerId picked) {
  DAS_CHECK_MSG(std::find(replicas.begin(), replicas.end(), picked) != replicas.end(),
                "replica selector picked a server outside the key's replica set");
  return picked;
}

/// The two largest per-server full-completion estimates. A destination's
/// deferral bound is the largest estimate among the OTHER servers: the
/// runner-up when it holds the maximum itself, the maximum otherwise. Fed
/// one value per distinct server, so two servers tied at the maximum give
/// each other the maximum. Starting from 0 keeps the bound 0 when no other
/// server is left.
class TopTwo {
 public:
  void add(ServerId server, SimTime estimate) {
    if (estimate > first_) {
      second_ = first_;
      first_ = estimate;
      first_server_ = server;
    } else if (estimate > second_) {
      second_ = estimate;
    }
  }
  SimTime max_excluding(ServerId server) const {
    return server == first_server_ ? second_ : first_;
  }

 private:
  SimTime first_ = 0;
  SimTime second_ = 0;
  ServerId first_server_ = 0;  // meaningful only once first_ > 0
};

}  // namespace

Client::Client(sim::Simulator& sim, Params params, Rng rng,
               std::vector<TenantStream> tenants,
               const store::Partitioner& partitioner,
               const std::vector<std::uint32_t>& catalogue,
               FlatMap<KeyId, Bytes>& issued, Metrics& metrics,
               Transport& transport)
    : sim_(sim),
      params_(params),
      rng_(rng),
      tenants_(std::move(tenants)),
      partitioner_(partitioner),
      catalogue_(catalogue),
      issued_(issued),
      metrics_(metrics),
      transport_(transport),
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
  // Tenants past the first get their own workload streams, forked off COPIES
  // so neither rng_ nor the single-tenant draw sequence is perturbed.
  extra_tenant_rngs_.reserve(tenants_.size() - 1);
  for (std::size_t t = 1; t < tenants_.size(); ++t) {
    extra_tenant_rngs_.push_back(
        Rng{rng_}.fork(0x7E4A0000ull + t * 0x10001ull + params_.id));
  }
  if (params_.overload.admission) {
    admission_ = std::make_unique<overload::AdmissionController>(tenants_.size());
  }
  d_est_.assign(params_.num_servers, 0.0);
  mu_est_.assign(params_.num_servers, 1.0);
  selector_ = select::make_selector(params_.replica_selection);
  rto_strikes_.assign(params_.num_servers, 0);
  suspected_.assign(params_.num_servers, 0);
  server_entry_.assign(params_.num_servers, kNoEntry);
}

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

Bytes Client::size_of(KeyId key) const {
  DAS_CHECK(key < catalogue_.size());
  const auto it = issued_.find(key);
  return it != issued_.end() ? it->second : catalogue_[key];
}

double Client::service_estimate_us(ServerId server, double demand) const {
  const double mu = params_.adaptive ? mu_est_[server] : 1.0;
  return demand / mu;
}

SimTime Client::full_estimate(SimTime now, ServerId server, double service) const {
  const double d = params_.adaptive ? d_est_[server] : 0.0;
  return now + params_.est_rtt_us + d + service;
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
  std::vector<PendingOp> plan;
  const workload::OpKind kind = stream.mix.sample(rng);
  if (kind != workload::OpKind::kRead) {
    const KeyId key = stream.generator->sample_key(rng, now);
    const Bytes old_size = size_of(key);
    const Bytes new_size = static_cast<Bytes>(
        std::max(1.0, std::round(stream.value_size->sample(rng))));
    const double demand =
        kind == workload::OpKind::kRmw
            ? params_.cost.rmw_us(static_cast<double>(old_size + new_size))
            : params_.cost.op_us(static_cast<double>(new_size));
    plan_write(plan, key, new_size, demand);
  } else {
    const workload::MultigetSpec spec = stream.generator->generate(rng, now);
    DAS_CHECK(!spec.keys.empty());
    // Touch every key's size first: the catalogue outgrows the cache at
    // scale, and this way the k misses overlap instead of each one stalling
    // its own plan step.
    for (const KeyId key : spec.keys) {
      if (key < catalogue_.size()) __builtin_prefetch(&catalogue_[key]);
    }
    plan.reserve(spec.keys.size());
    for (const KeyId key : spec.keys) plan_read(plan, key);
  }
  dispatch_plan(tenant, std::move(plan));
}

void Client::generate_replay_request(std::size_t tenant, std::size_t index) {
  const workload::ReplayRecord& rec = tenants_[tenant].replay->records[index];
  DAS_CHECK_MSG(rec.key < catalogue_.size(),
                "replay record references a key outside the keyspace");
  std::vector<PendingOp> plan;
  if (rec.op == workload::ReplayOp::kWrite) {
    const Bytes new_size = rec.size_bytes > 0 ? rec.size_bytes : size_of(rec.key);
    plan_write(plan, rec.key, new_size,
               params_.cost.op_us(static_cast<double>(new_size)));
  } else {
    // The trace's size is authoritative for the client's demand estimate:
    // the replayed store served that size when the trace was taken. Servers
    // keep serving the catalogue size on the op and their completed writes.
    if (rec.size_bytes > 0) issued_[rec.key] = rec.size_bytes;
    plan_read(plan, rec.key);
  }
  dispatch_plan(tenant, std::move(plan));
}

void Client::plan_write(std::vector<PendingOp>& plan, KeyId key, Bytes size,
                        double demand) {
  // The writer knows the size it is writing; publish it to the shared
  // overlay so demand estimates track the store's contents.
  issued_[key] = size;
  if (recorder_ != nullptr) {
    recorder_->records.push_back({sim_.now(), workload::ReplayOp::kWrite, key, size});
  }
  for (const ServerId server :
       partitioner_.replicas_for(key, std::max<std::size_t>(params_.replication, 1))) {
    PendingOp& op = plan.emplace_back();
    op.server = server;
    op.ctx.key = key;
    op.ctx.catalogue_bytes = catalogue_[key];
    op.ctx.demand_us = demand;
    op.ctx.is_write = true;
    op.ctx.write_size = size;
  }
}

void Client::plan_read(std::vector<PendingOp>& plan, KeyId key) {
  const Bytes size = size_of(key);
  const double demand = params_.cost.op_us(static_cast<double>(size));
  if (recorder_ != nullptr) {
    recorder_->records.push_back({sim_.now(), workload::ReplayOp::kRead, key, size});
  }
  PendingOp& op = plan.emplace_back();
  op.server = pick_server(key, demand);
  op.ctx.key = key;
  op.ctx.catalogue_bytes = catalogue_[key];
  op.ctx.demand_us = demand;
}

void Client::dispatch_plan(std::size_t tenant, std::vector<PendingOp> plan) {
  const SimTime now = sim_.now();
  const RequestId rid =
      (static_cast<RequestId>(params_.id) << 48) | next_request_seq_++;
  metrics_.record_generated(now, static_cast<std::uint32_t>(tenant));

  // Admission gate, AFTER the plan is built: the tenant's workload stream
  // draws identically whether or not the request is admitted, so throttling
  // never desynchronises the generated traffic across configs.
  if (admission_ != nullptr && !admission_->admit(tenant, admission_rng_)) {
    metrics_.record_unserved(Settled::kShed, now, now,
                             static_cast<std::uint32_t>(tenant));
    if (tracer_ != nullptr) {
      tracer_->request_shed(now, rid, params_.id, /*age_us=*/0.0,
                            /*at_admission=*/true);
    }
    ++requests_shed_admission_;
    return;
  }

  PendingRequest pending;
  pending.arrival = now;
  pending.tenant = static_cast<std::uint32_t>(tenant);
  if (params_.overload.deadlines()) {
    pending.expiry = now + params_.overload.deadline_budget_us;
  }
  const SimTime expiry = pending.expiry;
  pending.ops = std::move(plan);

  // Per-server aggregates: (op count, demand sum) for the Rein bottleneck
  // tags, plus the per-server max full-completion estimate for the DAS
  // deferral bounds. Only sums in op order and maxima are taken, so the
  // entries' order cannot leak into the tags.
  server_aggs_.clear();
  double total_demand = 0;
  double critical_us = 0;
  for (PendingOp& op : pending.ops) {
    const double demand = op.ctx.demand_us;
    const double service = service_estimate_us(op.server, demand);
    add_to_server_agg(op.server, demand, full_estimate(now, op.server, service));
    total_demand += demand;
    critical_us = std::max(critical_us, service);
    op.ctx.op_id = (static_cast<OperationId>(params_.id) << 48) | next_op_seq_++;
  }
  unindex_server_aggs();
  std::uint32_t bottleneck_ops = 0;
  double bottleneck_demand = 0;
  TopTwo full_estimates;
  for (const ServerAgg& agg : server_aggs_) {
    bottleneck_ops = std::max(bottleneck_ops, agg.ops);
    bottleneck_demand = std::max(bottleneck_demand, agg.demand);
    full_estimates.add(agg.server, agg.max_full_estimate);
  }

  pending.remaining = pending.ops.size();
  pending.last_sent_critical = critical_us;
  pending.last_sent_total = total_demand;

  if (tracer_ != nullptr) {
    tracer_->request_arrival(now, rid, params_.id, pending.ops.size());
  }

  for (PendingOp& op : pending.ops) {
    sched::OpContext& ctx = op.ctx;
    ctx.request_id = rid;
    ctx.client = params_.id;
    ctx.request_arrival = now;
    ctx.remaining_critical_us = critical_us;
    // Deferral bound: the latest completion estimate among siblings on
    // servers other than this op's.
    ctx.est_other_completion = full_estimates.max_excluding(op.server);
    ctx.bottleneck_ops = bottleneck_ops;
    ctx.bottleneck_demand_us = bottleneck_demand;
    ctx.total_demand_us = total_demand;
    ctx.deadline = now + params_.edf_slo_us;
    ctx.expiry = expiry;
    send(op, op.server, /*resend=*/false);
    ++ops_generated_;
  }
  auto [it, inserted] = pending_.emplace(rid, std::move(pending));
  DAS_CHECK(inserted);
  for (PendingOp& op : it->second.ops) {
    if (params_.retry_timeout_us > 0) arm_retry(rid, op);
    // Writes already fan out to every replica; hedging applies to reads.
    if (params_.hedge_delay_us > 0 && params_.replication >= 2 && !op.ctx.is_write) {
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
  // finds no pending request and discards as a duplicate.
  for (PendingOp& op : req.ops) {
    if (op.done) continue;
    op.done = true;
    sim_.cancel(op.retry_timer);
    sim_.cancel(op.hedge_timer);
  }
  if (admission_ != nullptr) admission_->on_overload(req.tenant);
  metrics_.record_unserved(Settled::kExpired, req.arrival, now, req.tenant);
  if (tracer_ != nullptr) {
    tracer_->request_expired(now, rid, params_.id, now - req.arrival);
  }
  pending_.erase(req_it);
}

Client::PendingOp& Client::find_op(PendingRequest& req, OperationId op_id) {
  // dispatch_plan numbers a request's ops consecutively; an id below the
  // first wraps to a huge index.
  const OperationId index = op_id - req.ops.front().ctx.op_id;
  DAS_CHECK_MSG(index < req.ops.size(), "op id outside its pending request");
  return req.ops[index];
}

void Client::send(const PendingOp& op, ServerId server, bool resend) {
  transport_.send_op(server, op.ctx);
  if (tracer_ != nullptr) {
    tracer_->op_send(sim_.now(), op.ctx.op_id, op.ctx.request_id, params_.id,
                     server, op.ctx.demand_us, resend);
  }
}

void Client::arm_hedge(RequestId rid, PendingOp& op) {
  const OperationId op_id = op.ctx.op_id;
  op.hedge_timer = sim_.schedule_after(params_.hedge_delay_us, [this, rid, op_id] {
    const auto req_it = pending_.find(rid);
    if (req_it == pending_.end()) return;
    PendingOp& pop = find_op(req_it->second, op_id);
    if (pop.done || pop.hedged) return;
    // Pick the best OTHER replica under the current learned view. Hedging to
    // a suspected replica only doubles the load on a host that is not
    // answering, so pick_alternate skips suspects.
    const auto replicas = partitioner_.replicas_for(pop.ctx.key, params_.replication);
    const ServerId alternate = selector_->pick_alternate(
        replicas, learned_view(), {pop.ctx.demand_us, pop.ctx.key, sim_.now()},
        pop.server);
    if (alternate == kInvalidServer) return;  // no distinct live replica
    checked_pick(replicas, alternate);
    pop.hedged = true;
    ++ops_hedged_;
    send(pop, alternate, /*resend=*/true);
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
  const OperationId op_id = op.ctx.op_id;
  op.retry_timer = sim_.schedule_after(timeout, [this, rid, op_id] {
    const auto req_it = pending_.find(rid);
    if (req_it == pending_.end()) return;
    PendingRequest& req = req_it->second;
    PendingOp& pop = find_op(req, op_id);
    if (pop.done) return;
    // Failure detection: one more consecutive unanswered timeout against
    // this server.
    note_rto(pop.server);
    if (params_.retry_max_attempts > 0 && pop.attempts >= params_.retry_max_attempts) {
      // The retry budget is spent. If the server's last word on this op was
      // BUSY, the exhaustion is the overload layer's doing: shed, not failed.
      ++ops_abandoned_;
      give_up_op(rid, req, pop, pop.busy_rejected);
      return;
    }
    ++pop.attempts;
    ++ops_retransmitted_;
    maybe_fail_over(req, pop);
    send(pop, pop.server, /*resend=*/true);
    arm_retry(rid, pop);
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
  if (params_.replication < 2 || op.ctx.is_write) return;
  if (suspected_[op.server] == 0) return;
  const auto replicas = partitioner_.replicas_for(op.ctx.key, params_.replication);
  const ServerId best = selector_->pick_alternate(
      replicas, learned_view(), {op.ctx.demand_us, op.ctx.key, sim_.now()},
      op.server);
  if (best == kInvalidServer) return;  // every replica suspected: keep trying
  op.server = checked_pick(replicas, best);
  ++ops_failed_over_;
  req.failed_over = true;
}

void Client::give_up_op(RequestId rid, PendingRequest& req, PendingOp& op,
                        bool shed) {
  // The request leaves the books as SHED or FAILED rather than hanging in
  // flight forever; a straggler response arriving later is discarded as a
  // duplicate. Cancelling the retry timer that is firing right now is a
  // no-op: its handle is already spent.
  op.done = true;
  sim_.cancel(op.retry_timer);
  sim_.cancel(op.hedge_timer);
  ++(shed ? req.shed_ops : req.failed_ops);
  DAS_CHECK(req.remaining > 0);
  --req.remaining;
  if (req.remaining == 0) finalize_degraded(rid, req);
}

void Client::finalize_degraded(RequestId rid, PendingRequest& req) {
  DAS_CHECK(req.remaining == 0);
  DAS_CHECK(req.shed_ops > 0 || req.failed_ops > 0);
  const SimTime now = sim_.now();
  sim_.cancel(req.deadline_timer);
  if (req.shed_ops > 0) {
    // Shed outranks failed: an overload rejection is load the system chose
    // to turn away, not a fault — the distinction is what E22 measures.
    metrics_.record_unserved(Settled::kShed, req.arrival, now, req.tenant);
    if (tracer_ != nullptr) {
      tracer_->request_shed(now, rid, params_.id, now - req.arrival,
                            /*at_admission=*/false);
    }
  } else {
    metrics_.record_unserved(Settled::kFailed, req.arrival, now, req.tenant);
    if (tracer_ != nullptr) {
      tracer_->request_complete(now, rid, params_.id, now - req.arrival);
    }
  }
  pending_.erase(rid);
}

void Client::on_response(const OpResponse& resp) {
  const SimTime now = sim_.now();

  // Any response — including a duplicate — clears the server's failure
  // suspicion: the streak of consecutive unanswered timeouts is broken.
  rto_strikes_[resp.server] = 0;
  suspected_[resp.server] = 0;

  const RequestId rid = resp.request_id;
  const auto req_it = pending_.find(rid);
  PendingOp* const pop =
      req_it != pending_.end() ? &find_op(req_it->second, resp.op_id) : nullptr;
  if (pop == nullptr || pop->done) {
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
    d_est_[resp.server] += kEwmaAlpha * (resp.d_hat_us - d_est_[resp.server]);
    mu_est_[resp.server] += kEwmaAlpha * (resp.mu_hat - mu_est_[resp.server]);
  }
  PendingRequest& req = req_it->second;
  if (resp.status != OpStatus::kOk) {
    // The op was shed server-side. Every BUSY is an overload signal for the
    // AIMD throttle, whether or not the op survives via retry.
    if (admission_ != nullptr) admission_->on_overload(req.tenant);
    if (params_.retry_timeout_us > 0) {
      // The retry timer armed at send is still running: the retransmission
      // path (backoff, jitter, failover, give-up budget) handles the redo.
      // The explicit BUSY just told us sooner than silence would have.
      pop->busy_rejected = true;
    } else {
      give_up_op(rid, req, *pop, /*shed=*/true);
    }
    return;
  }

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
      finalize_degraded(rid, req);
      return;
    }
    sim_.cancel(req.deadline_timer);
    if (admission_ != nullptr) admission_->on_success(req.tenant);
    metrics_.record_request(req.arrival, now, req.tenant);
    if (req.failed_over) ++requests_completed_failover_;
    if (tracer_ != nullptr) {
      tracer_->request_complete(now, rid, params_.id, now - req.arrival);
    }
    // The critical op is the one whose response completed the request; its
    // siblings' idle tails since delivery form the straggler slack.
    if (pop->timing.valid) {
      double slack_sum = 0;
      for (const PendingOp& op : req.ops) {
        if (&op == pop) continue;
        slack_sum += now - op.delivered_at;
      }
      metrics_.record_breakdown(trace::make_request_breakdown(
          req.arrival, now, pop->timing, slack_sum, req.ops.size()));
    }
    pending_.erase(req_it);
    return;
  }

  if (!params_.progress_updates) return;

  // Recompute the scheduling estimates from the surviving ops under the
  // *current* per-server view and propagate when the critical path moved
  // enough to change scheduling decisions.
  double new_critical = 0;
  double remaining_demand = 0;
  // Entry order below decides the order progress updates hit the network
  // (event sequence numbers!), so it is first-touch order — the order ops
  // appear in the request — which is deterministic everywhere.
  server_aggs_.clear();
  for (const PendingOp& op : req.ops) {
    if (op.done) continue;
    const double demand = op.ctx.demand_us;
    remaining_demand += demand;
    // One division serves both estimates.
    const double service = service_estimate_us(op.server, demand);
    new_critical = std::max(new_critical, service);
    add_to_server_agg(op.server, demand, full_estimate(now, op.server, service));
  }
  unindex_server_aggs();
  // Send when either the critical path (das-crit's key) or the total
  // remaining (the SRPT-first key of das and req-srpt) moved by more than the
  // threshold, relative to its last sent value.
  const bool critical_moved =
      std::abs(new_critical - req.last_sent_critical) >=
      kProgressThreshold * std::max(req.last_sent_critical, 1.0);
  const bool total_moved =
      std::abs(remaining_demand - req.last_sent_total) >=
      kProgressThreshold * std::max(req.last_sent_total, 1.0);
  if (!critical_moved && !total_moved) return;
  req.last_sent_critical = new_critical;
  req.last_sent_total = remaining_demand;
  // One update per distinct server still holding pending ops; the deferral
  // bound is per destination (max full estimate over the OTHER servers).
  TopTwo full_estimates;
  for (const ServerAgg& agg : server_aggs_) {
    full_estimates.add(agg.server, agg.max_full_estimate);
  }
  for (const ServerAgg& agg : server_aggs_) {
    sched::ProgressUpdate update;
    update.remaining_critical_us = new_critical;
    update.est_other_completion = full_estimates.max_excluding(agg.server);
    update.remaining_total_us = remaining_demand;
    transport_.send_progress(params_.id, agg.server, rid, update);
    ++progress_sent_;
  }
}

void Client::add_to_server_agg(ServerId server, double demand,
                               SimTime full_estimate) {
  std::uint32_t& entry = server_entry_[server];
  if (entry == kNoEntry) {
    entry = static_cast<std::uint32_t>(server_aggs_.size());
    server_aggs_.push_back({server, 0, 0, 0});
  }
  ServerAgg& agg = server_aggs_[entry];
  ++agg.ops;
  agg.demand += demand;
  agg.max_full_estimate = std::max(agg.max_full_estimate, full_estimate);
}

void Client::unindex_server_aggs() {
  for (const ServerAgg& agg : server_aggs_) server_entry_[agg.server] = kNoEntry;
}

}  // namespace das::core
