#include "sched/req_srpt.hpp"

#include "trace/tracer.hpp"

namespace das::sched {

void ReqSrptScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "SRPT queue size drifted from accounting");
  queue_.check_invariants();
  queue_.for_each([](std::size_t, double key, const OpContext&) {
    DAS_AUDIT(key >= 0, "negative remaining total demand");
  });
  by_request_.check_invariants(queue_);
}

void ReqSrptScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  const double key = copy.total_demand_us;
  by_request_.add(op.request_id, queue_.insert(key, std::move(copy)));
}

OpContext ReqSrptScheduler::take(Handle h) {
  OpContext op = queue_.remove(h);
  by_request_.remove(op.request_id, h);
  note_out(op);
  return op;
}

OpContext ReqSrptScheduler::dequeue(SimTime) { return take(queue_.min_handle()); }

std::vector<OpContext> ReqSrptScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) out.push_back(take(queue_.min_handle()));
  return out;
}

bool ReqSrptScheduler::preempts(const OpContext& incoming,
                                const OpContext& in_service) const {
  return incoming.total_demand_us < in_service.total_demand_us;
}

void ReqSrptScheduler::on_request_progress(RequestId request,
                                           const ProgressUpdate& update,
                                           SimTime now) {
  for (const Handle h : by_request_.find(request)) {
    const double old_key = queue_.key(h);
    if (old_key == update.remaining_total_us) continue;
    queue_.update(h, update.remaining_total_us);
    ++reranks_;
    if (tracer_ != nullptr) {
      const OpContext& op = queue_.at(h);
      tracer_->op_rerank(now, op.op_id, op.request_id, tracer_server_, old_key,
                         update.remaining_total_us);
    }
  }
}

}  // namespace das::sched
