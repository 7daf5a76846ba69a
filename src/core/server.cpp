#include "core/server.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace das::core {

namespace {

// The trace layer mirrors store::StoreTransitionKind so it never depends on
// the store library; this switch is the one mapping point.
trace::StoreTraceKind to_trace(store::StoreTransitionKind kind) {
  switch (kind) {
    case store::StoreTransitionKind::kCompactionStart:
      return trace::StoreTraceKind::kCompactionStart;
    case store::StoreTransitionKind::kCompactionEnd:
      return trace::StoreTraceKind::kCompactionEnd;
    case store::StoreTransitionKind::kWriteStallStart:
      return trace::StoreTraceKind::kWriteStallStart;
    case store::StoreTransitionKind::kWriteStallEnd:
      return trace::StoreTraceKind::kWriteStallEnd;
    case store::StoreTransitionKind::kFlush:
      return trace::StoreTraceKind::kFlush;
  }
  DAS_CHECK_MSG(false, "unknown store transition kind");
  return trace::StoreTraceKind::kFlush;
}

}  // namespace

Server::Server(sim::Simulator& sim, Params params, sched::SchedulerPtr scheduler,
               Metrics& metrics)
    : sim_(sim),
      params_(std::move(params)),
      scheduler_(std::move(scheduler)),
      metrics_(metrics),
      guard_(params_.overload) {
  lsm_ = std::move(params_.lsm);
  DAS_CHECK(scheduler_ != nullptr);
  DAS_CHECK(params_.speed_factor > 0);
  // Start the speed estimate at the static factor: a server knows its own
  // hardware class; what it must *learn* is the time-varying component.
  mu_hat_ = params_.speed_factor;
  scheduler_->on_speed_estimate(mu_hat_);
}

std::optional<Bytes> Server::written_size(KeyId key) const {
  if (const auto it = written_.find(key); it != written_.end()) return it->second;
  return std::nullopt;
}

double Server::effective_speed(SimTime now) {
  const double profile =
      params_.speed_profile ? params_.speed_profile->value_at(now) : 1.0;
  DAS_CHECK_MSG(profile > 0, "speed profile must stay positive");
  storage_factor_ = lsm_ != nullptr ? lsm_->capacity_factor(now) : 1.0;
  DAS_CHECK_MSG(storage_factor_ > 0 && storage_factor_ <= 1.0,
                "storage capacity factor outside (0, 1]");
  // The single composition path for every capacity modifier: static factor ×
  // time-varying profile × fault slowdown × storage dip. Multiplying by an
  // exact 1.0 is bit-exact in IEEE-754, so fault-free synthetic runs stay
  // bit-identical to builds that predate the fault and storage layers.
  const double speed =
      params_.speed_factor * profile * fault_slowdown_ * storage_factor_;
  DAS_CHECK_MSG(speed > 0, "effective speed must stay positive");
  return speed;
}

double Server::remaining_demand(double remaining_base_us) const {
  // Synthetic mode prices ops at their client-tagged demand, so base cost
  // and demand coincide and the unserved base IS the remaining demand (the
  // exact legacy arithmetic). Under a store model the scheduler still thinks
  // in demand currency: scale the tag by the unserved base-cost fraction.
  if (lsm_ == nullptr) return remaining_base_us;
  return current_op_.demand_us * (remaining_base_us / current_base_cost_us_);
}

store::OpCostQuery Server::cost_query(const sched::OpContext& op) const {
  store::OpCostQuery q;
  q.key = op.key;
  q.is_write = op.is_write;
  q.size_bytes =
      op.is_write ? op.write_size : written_size(op.key).value_or(op.catalogue_bytes);
  return q;
}

void Server::emit_store_transitions() {
  if (tracer_ == nullptr) return;
  store_transitions_.clear();
  lsm_->drain_transitions(store_transitions_);
  for (const store::StoreTransition& tr : store_transitions_) {
    tracer_->store_transition(tr.at, to_trace(tr.kind), params_.id,
                              tr.debt_bytes);
  }
}

void Server::finalize_store() {
  if (lsm_ == nullptr) return;
  lsm_->finalize(sim_.now());
  emit_store_transitions();
}

double Server::d_hat_us() const {
  return scheduler_->backlog_demand_us() / mu_hat_;
}

void Server::check_invariants() const {
  DAS_AUDIT(ops_received_ == scheduler_->size() + (busy_ ? 1 : 0) +
                                 ops_completed_ + ops_dropped_ +
                                 guard_.total_shed(),
            "op conservation: received != queued + in-service + completed + "
            "dropped + shed");
  guard_.check_invariants();
  DAS_AUDIT(wasted_service_us_ >= 0, "negative wasted service");
  DAS_AUDIT(mu_hat_ > 0, "nonpositive speed estimate");
  DAS_AUDIT(fault_slowdown_ > 0, "nonpositive fault slowdown");
  // effective_speed() factor bounds: each factor in range, product positive.
  DAS_AUDIT(storage_factor_ > 0 && storage_factor_ <= 1.0,
            "storage capacity factor outside (0, 1]");
  DAS_AUDIT(params_.speed_factor * fault_slowdown_ * storage_factor_ > 0,
            "effective-speed factor product must stay positive");
  if (lsm_ != nullptr) lsm_->check_invariants();
  if (state_ == State::kCrashed) {
    DAS_AUDIT(!busy_, "crashed server still in service");
    DAS_AUDIT(scheduler_->empty(), "crashed server with queued work");
  }
  if (busy_) {
    DAS_AUDIT(current_op_.demand_us >= 0, "negative remaining service demand");
    DAS_AUDIT(current_base_cost_us_ >= 0, "negative base service cost");
    DAS_AUDIT(completion_event_.valid(), "busy server without a completion event");
    DAS_AUDIT(current_speed_ > 0, "busy server with nonpositive service speed");
  } else {
    DAS_AUDIT(scheduler_->empty(), "idle server with queued work");
  }
  scheduler_->check_invariants();
}

void Server::receive_op(const sched::OpContext& op) {
  ++ops_received_;
  if (state_ == State::kCrashed) {
    // The message reached a dead host. Counting it keeps conservation
    // closed: received == queued + in-service + completed + dropped.
    ++ops_dropped_;
    return;
  }
  const SimTime now = sim_.now();
  const bool reject = guard_.should_reject(scheduler_->size());
  if (tracer_ != nullptr) {
    if (!reject) {
      tracer_->server_enqueue(now, op.op_id, op.request_id, params_.id);
    }
    // Sampled queue-state counters piggyback on arrivals — rejected ones
    // included: the gauges matter most exactly when the queue is full. No
    // extra simulator events, so tracing cannot perturb the event schedule.
    if (ops_received_ % trace::Tracer::kCounterStride == 0) {
      tracer_->counter_sample(now, params_.id, scheduler_->backlog_demand_us(),
                              mu_hat_,
                              scheduler_->size() - scheduler_->deferred_size(),
                              scheduler_->deferred_size());
      if (lsm_ != nullptr) {
        const store::StoreGauges g = lsm_->gauges();
        tracer_->store_counter_sample(now, params_.id, g.memtable_fill_bytes,
                                      g.compaction_debt_bytes, g.l0_runs);
      }
    }
  }
  if (reject) {
    // Bounded queue at cap: the arrival bounces straight back as BUSY. The
    // rejection costs the network a response but zero service — shedding at
    // the door is the whole point of the bound.
    guard_.note_rejected();
    if (tracer_ != nullptr) {
      tracer_->op_shed(now, op.op_id, op.request_id, params_.id,
                       trace::OpShedReason::kQueueFull);
    }
    respond(make_response(op, OpStatus::kBusy));
    return;
  }
  if (busy_ && params_.preemptive) {
    // Snapshot the in-service op's remaining demand and ask the policy.
    // Progress is measured in base-cost units (identical to demand units in
    // synthetic mode).
    const double consumed = (now - current_started_) * current_speed_;
    const double remaining_base = current_base_cost_us_ - consumed;
    if (remaining_base > 1e-9) {
      sched::OpContext snapshot = current_op_;
      snapshot.demand_us = remaining_demand(remaining_base);
      if (scheduler_->preempts(op, snapshot)) preempt_current();
    }
  }
  scheduler_->enqueue(op, now);
  maybe_start();
}

OpResponse Server::make_response(const sched::OpContext& op,
                                 OpStatus status) const {
  OpResponse resp;
  resp.op_id = op.op_id;
  resp.request_id = op.request_id;
  resp.client = op.client;
  resp.server = params_.id;
  resp.key = op.key;
  resp.is_write = op.is_write;
  resp.completed_at = sim_.now();
  resp.d_hat_us = d_hat_us();
  resp.mu_hat = mu_hat_;
  resp.status = status;
  return resp;
}

void Server::respond(const OpResponse& resp) const {
  DAS_CHECK_MSG(transport_ != nullptr, "server transport not wired");
  transport_->send_response(resp);
}

void Server::preempt_current() {
  DAS_CHECK(busy_);
  const SimTime now = sim_.now();
  sim_.cancel(completion_event_);
  completion_event_ = sim::EventHandle{};
  note_busy_interval(current_started_, now);
  const double consumed = (now - current_started_) * current_speed_;
  const double remaining_base = current_base_cost_us_ - consumed;
  current_op_.demand_us = std::max(remaining_demand(remaining_base), 0.0);
  busy_ = false;
  ++preemptions_;
  if (tracer_ != nullptr) {
    tracer_->service_end(now, current_op_.op_id, current_op_.request_id,
                         params_.id);
  }
  // Preempt-resume: the remainder rejoins the queue and competes normally.
  scheduler_->enqueue(current_op_, now);
}

void Server::note_busy_interval(SimTime begin, SimTime end) {
  busy_in_window_ += metrics_.time_in_window(begin, end);
}

void Server::receive_progress(RequestId request,
                              const sched::ProgressUpdate& update) {
  if (state_ == State::kCrashed) return;
  scheduler_->on_request_progress(request, update, sim_.now());
}

void Server::crash() {
  DAS_CHECK_MSG(state_ != State::kCrashed, "crash of an already-crashed server");
  const SimTime now = sim_.now();
  if (busy_) {
    sim_.cancel(completion_event_);
    completion_event_ = sim::EventHandle{};
    note_busy_interval(current_started_, now);
    if (tracer_ != nullptr) {
      // Close the open service slice so trace spans stay balanced.
      tracer_->service_end(now, current_op_.op_id, current_op_.request_id,
                           params_.id);
    }
    busy_ = false;
    ++ops_dropped_;
  }
  ops_dropped_ += scheduler_->drain(now).size();
  DAS_CHECK_MSG(scheduler_->empty(), "crash left the scheduler non-empty");
  if (lsm_ != nullptr) {
    // The memtable dies with the process; background compaction is cut off.
    lsm_->on_crash(now);
    emit_store_transitions();
  }
  state_ = State::kCrashed;
  ++crashes_;
}

void Server::recover() {
  DAS_CHECK_MSG(state_ == State::kCrashed, "recover of a live server");
  DAS_CHECK(!busy_ && scheduler_->empty());
  state_ = State::kRecovering;
  recovery_ops_left_ = 16;
  ++recoveries_;
  // Warm restart of the estimator: the hardware class is known; the
  // time-varying component is re-learned from the next completions.
  mu_hat_ = params_.speed_factor;
  scheduler_->on_speed_estimate(mu_hat_);
}

void Server::set_fault_slowdown(double factor) {
  DAS_CHECK_MSG(factor > 0, "fault slowdown must be positive");
  fault_slowdown_ = factor;
}

void Server::maybe_start() {
  if (busy_ || state_ == State::kCrashed || scheduler_->empty()) return;
  const SimTime now = sim_.now();
  // Dequeue-time shedding: with the overload layer on, the head pick may be
  // past its end-to-end deadline (serving it would be pure waste) or — under
  // the sojourn-drop policy — have waited past the sojourn threshold (the
  // CoDel signal that the queue has gone standing). Either way the op is
  // answered immediately and the loop pulls the next candidate, so the
  // server never idles while sheddable work hides a runnable op behind it.
  bool selected = false;
  while (!scheduler_->empty()) {
    sched::OpContext head = scheduler_->dequeue(now);
    if (guard_.is_expired(now, head.expiry)) {
      guard_.note_expired();
      if (tracer_ != nullptr) {
        tracer_->op_shed(now, head.op_id, head.request_id, params_.id,
                         trace::OpShedReason::kExpired);
      }
      respond(make_response(head, OpStatus::kExpired));
      continue;
    }
    if (guard_.should_drop_sojourn(now, head.enqueued_at)) {
      guard_.note_sojourn_drop();
      if (tracer_ != nullptr) {
        tracer_->op_shed(now, head.op_id, head.request_id, params_.id,
                         trace::OpShedReason::kSojourn);
      }
      respond(make_response(head, OpStatus::kBusy));
      continue;
    }
    current_op_ = head;
    selected = true;
    break;
  }
  // Shedding may have drained the whole queue.
  if (!selected) return;
  current_started_ = now;
  busy_ = true;
  // Base cost: the store model's price when one is attached (size-dependent
  // read path, write-stall amplification), the client-tagged demand
  // otherwise. Priced once at dispatch.
  current_base_cost_us_ =
      lsm_ != nullptr ? lsm_->base_cost_us(cost_query(current_op_), now)
                      : current_op_.demand_us;
  if (lsm_ != nullptr) emit_store_transitions();
  // The speed is sampled at dispatch; dwell times of the fluctuation
  // processes are orders of magnitude longer than one service, so freezing
  // the rate for the op's duration is a faithful approximation.
  current_speed_ = effective_speed(now);
  if (tracer_ != nullptr) {
    tracer_->service_start(now, current_op_.op_id, current_op_.request_id,
                           params_.id, current_base_cost_us_);
  }
  const double service = current_base_cost_us_ / current_speed_;
  completion_event_ = sim_.schedule_after(service, [this] { complete_current(); });
}

void Server::complete_current() {
  const SimTime now = sim_.now();
  const Duration elapsed = now - current_started_;
  DAS_CHECK(elapsed > 0);

  // Adaptive service-speed estimate from the observed completion.
  const double observed_speed = current_op_.demand_us / elapsed;
  mu_hat_ += kSpeedAlpha * (observed_speed - mu_hat_);
  scheduler_->on_speed_estimate(mu_hat_);

  note_busy_interval(current_started_, now);
  completion_event_ = sim::EventHandle{};

  if (current_op_.is_write) written_[current_op_.key] = current_op_.write_size;
  const auto size = written_size(current_op_.key).value_or(current_op_.catalogue_bytes);
  if (lsm_ != nullptr) {
    // A completed write lands in the model's memtable and may trigger a
    // flush / compaction / stall transition.
    lsm_->on_op_complete(cost_query(current_op_), now);
    emit_store_transitions();
  }
  ++ops_completed_;
  // Deadlines are only checked at dequeue, never mid-service: an op that
  // expired while being served still completes, but its service time was
  // wasted — the client's deadline timer has already failed the request.
  if (guard_.is_expired(now, current_op_.expiry)) {
    wasted_service_us_ += elapsed;
  }
  if (state_ == State::kRecovering && --recovery_ops_left_ == 0)
    state_ = State::kUp;

  metrics_.record_operation(current_op_.enqueued_at, now,
                            current_started_ - current_op_.enqueued_at);

  // Built before maybe_start(): d_hat must describe the backlog this op
  // leaves behind, not the next op's.
  OpResponse resp = make_response(current_op_, OpStatus::kOk);
  resp.hit = size > 0;
  resp.value_size = size;
  // Timing echo for the client-side RCT breakdown. Under preempt-resume the
  // cut points describe the FINAL service slice (the remainder's re-enqueue
  // and dispatch), so earlier slices fold into the "network" residual.
  resp.timing.enqueued_at = current_op_.enqueued_at;
  resp.timing.service_start = current_started_;
  resp.timing.service_end = now;
  resp.timing.deferred_us = current_op_.deferred_wait_us;
  resp.timing.valid = true;

  if (tracer_ != nullptr) {
    tracer_->service_end(now, current_op_.op_id, current_op_.request_id,
                         params_.id);
  }

  busy_ = false;
  // Start the next op before responding: the transport may inject new work
  // (it runs through the network anyway), and the server must never idle
  // with a non-empty queue.
  maybe_start();
  respond(resp);
}

}  // namespace das::core
