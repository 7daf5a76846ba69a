#include "sched/das.hpp"

#include "trace/tracer.hpp"

namespace das::sched {

DasScheduler::DasScheduler(Options options) : options_(options) {
  DAS_CHECK(options_.max_wait_us > 0);
  DAS_CHECK(options_.defer_margin > 0);
}

void DasScheduler::check_policy_invariants() const {
  DAS_AUDIT(mu_hat_ > 0, "nonpositive speed estimate");
  DAS_AUDIT(queue_.size() == size(), "DAS queue size drifted from accounting");
  queue_.check_invariants();
  queue_.for_each([this](std::size_t lane, double key, const Queued& q) {
    DAS_AUDIT(key >= 0, "negative DAS lane key");
    DAS_AUDIT(key == lane_key(q.op, static_cast<Lane>(lane)), "stale DAS lane key");
    DAS_AUDIT(q.op.remaining_critical_us >= 0,
              "negative critical-path remaining time");
    DAS_AUDIT(q.op.total_demand_us >= 0, "negative total remaining demand");
  });
  // The per-request chains partition the queue and prune empty requests.
  std::size_t indexed = 0;
  for (const auto& [request, chain] : by_request_) {
    DAS_AUDIT(chain.head.valid(), "empty per-request chain not pruned");
    Handle last;
    for (Handle h = chain.head; h.valid(); h = queue_.at(h).next) {
      DAS_AUDIT(queue_.contains(h), "per-request chain holds a served handle");
      DAS_AUDIT(queue_.at(h).op.request_id == request,
                "per-request chain points at the wrong request");
      DAS_AUDIT(++indexed <= queue_.size(), "per-request chain cycle");
      last = h;
    }
    DAS_AUDIT(chain.tail == last, "per-request chain tail is not its last op");
  }
  DAS_AUDIT(indexed == queue_.size(), "per-request chains do not partition the queue");
  // Aging must be able to reach every queued op: each one appears in the
  // fifo exactly once, and the head is queued (served ops behind it are
  // dropped once they reach the front).
  DAS_AUDIT(fifo_.empty() || queue_.contains(fifo_.front()),
            "aging fifo head is a served op");
  std::size_t live = 0;
  for (const Handle h : fifo_) {
    if (queue_.contains(h)) ++live;
  }
  DAS_AUDIT(live == queue_.size(), "aging fifo lost track of queued ops");
}

void DasScheduler::on_speed_estimate(double speed) {
  if (!options_.adaptive) return;
  DAS_CHECK(speed > 0);
  mu_hat_ = speed;
}

Duration DasScheduler::drain_time_us() const {
  return backlog_demand_us() / mu_hat_;
}

bool DasScheduler::safe_to_defer(SimTime est_other_completion, SimTime now) const {
  if (!options_.defer) return false;
  if (est_other_completion <= 0) return false;  // no siblings elsewhere
  // Even if served after everything currently queued, the op would complete
  // around now + drain_time; if the request cannot finish before
  // est_other_completion anyway, deferring costs its RCT nothing.
  return est_other_completion - now > drain_time_us() * options_.defer_margin;
}

bool DasScheduler::preempts(const OpContext& incoming,
                            const OpContext& in_service) const {
  return active_key(incoming) < active_key(in_service);
}

double DasScheduler::active_key(const OpContext& op) const {
  return options_.primary_key == PrimaryKey::kTotalRemaining
             ? op.total_demand_us
             : op.remaining_critical_us;
}

double DasScheduler::active_key(const ProgressUpdate& update) const {
  return options_.primary_key == PrimaryKey::kTotalRemaining
             ? update.remaining_total_us
             : update.remaining_critical_us;
}

double DasScheduler::lane_key(const OpContext& op, Lane lane) const {
  return lane == kDeferred ? op.est_other_completion : active_key(op);
}

DasScheduler::Lane DasScheduler::place(Queued& q, SimTime now) {
  if (!safe_to_defer(q.op.est_other_completion, now)) return kRunnable;
  ++total_deferrals_;
  q.defer_started = now;
  if (tracer_ != nullptr) {
    tracer_->op_defer(now, q.op.op_id, q.op.request_id, tracer_server_,
                      q.op.est_other_completion);
  }
  return kDeferred;
}

void DasScheduler::close_deferral(Handle h, SimTime now) {
  if (queue_.lane(h) != kDeferred) return;
  Queued& q = queue_.at(h);
  q.op.deferred_wait_us += now - q.defer_started;
}

void DasScheduler::enqueue(const OpContext& op, SimTime now) {
  Queued q;
  q.op = op;
  q.op.enqueued_at = now;
  note_in(q.op);
  const Lane lane = place(q, now);
  const double key = lane_key(q.op, lane);
  const Handle h = queue_.insert(key, std::move(q), lane);
  fifo_.push_back(h);
  Chain& chain = by_request_[op.request_id];
  if (chain.head.valid()) {
    queue_.at(chain.tail).next = h;
  } else {
    chain.head = h;
  }
  chain.tail = h;
}

void DasScheduler::unlink(Handle h) {
  const Queued& q = queue_.at(h);
  const auto it = by_request_.find(q.op.request_id);
  Chain& chain = it->second;
  if (chain.head == h) {
    chain.head = q.next;
    if (!chain.head.valid()) by_request_.erase(it);
    return;
  }
  // A request has few queued ops here (its fan-out share of this server),
  // so the walk to the predecessor is short.
  Handle prev = chain.head;
  while (queue_.at(prev).next != h) prev = queue_.at(prev).next;
  queue_.at(prev).next = q.next;
  if (chain.tail == h) chain.tail = prev;
}

OpContext DasScheduler::finish(Handle h, SimTime now) {
  close_deferral(h, now);
  unlink(h);
  OpContext op = std::move(queue_.remove(h).op);
  // Keep the fifo head live: served ops leave its front whether or not aging
  // is on, so the fifo empties with the queue.
  while (!fifo_.empty() && !queue_.contains(fifo_.front())) fifo_.pop_front();
  note_out(op);
  return op;
}

void DasScheduler::migrate_due(SimTime now) {
  // The deferred lane is ordered by deferral expiry (est_other_completion):
  // its minimum is the least-safe element. While that element's window has
  // closed — time passed, or the backlog shrank — it re-enters the runnable
  // lane; once the minimum is safe, all later ones are too.
  while (queue_.lane_size(kDeferred) > 0) {
    if (safe_to_defer(queue_.min_key(kDeferred), now)) break;
    const Handle h = queue_.min_handle(kDeferred);
    close_deferral(h, now);
    ++resumes_;
    const OpContext& op = queue_.at(h).op;
    queue_.move(h, kRunnable, active_key(op));
    if (tracer_ != nullptr)
      tracer_->op_resume(now, op.op_id, op.request_id, tracer_server_);
  }
}

OpContext DasScheduler::dequeue(SimTime now) {
  DAS_CHECK(!empty());
  // 1. Aging: the oldest op (the fifo head, live by finish()) is served
  // unconditionally past its wait bound.
  const Handle h = fifo_.front();
  const OpContext& oldest = queue_.at(h).op;
  if (now - oldest.enqueued_at > options_.max_wait_us) {
    ++aging_promotions_;
    if (tracer_ != nullptr) {
      tracer_->aging_promotion(now, oldest.op_id, oldest.request_id,
                               tracer_server_, now - oldest.enqueued_at);
    }
    return finish(h, now);
  }
  // 2. Wake deferred ops whose safety window closed.
  migrate_due(now);
  // 3. SRPT-first on the runnable lane; fall back to the deferred lane so the
  // server never idles with work queued (work conservation).
  const Lane lane = queue_.lane_size(kRunnable) > 0 ? kRunnable : kDeferred;
  return finish(queue_.min_handle(lane), now);
}

std::vector<OpContext> DasScheduler::drain(SimTime now) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  // Serve the live fifo head until none is left; the fifo invariantly
  // covers every queued op, so this empties the queue and the per-request
  // index through the normal finish path.
  while (!fifo_.empty()) out.push_back(finish(fifo_.front(), now));
  DAS_CHECK_MSG(queue_.empty(), "drain left DAS ops behind");
  return out;
}

void DasScheduler::on_request_progress(RequestId request, const ProgressUpdate& update,
                                       SimTime now) {
  // Re-key every queued op of the request and re-evaluate its deferral.
  const auto it = by_request_.find(request);
  if (it == by_request_.end()) {
    ++progress_unqueued_;
    return;
  }
  bool rekeyed = false;
  for (Handle next = it->second.head; next.valid();) {
    const Handle h = next;
    Queued& q = queue_.at(h);
    next = q.next;
    if (q.op.remaining_critical_us == update.remaining_critical_us &&
        q.op.est_other_completion == update.est_other_completion &&
        q.op.total_demand_us == update.remaining_total_us) {
      continue;
    }
    const double old_key = active_key(q.op);
    close_deferral(h, now);
    q.op.remaining_critical_us = update.remaining_critical_us;
    q.op.est_other_completion = update.est_other_completion;
    q.op.total_demand_us = update.remaining_total_us;
    const Lane lane = place(q, now);
    queue_.move(h, lane, lane_key(q.op, lane));
    ++reranks_;
    rekeyed = true;
    if (tracer_ != nullptr) {
      tracer_->op_rerank(now, q.op.op_id, q.op.request_id, tracer_server_,
                         old_key, active_key(update));
    }
  }
  if (rekeyed) ++progress_rekeyed_;
}

}  // namespace das::sched
