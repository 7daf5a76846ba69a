#include "sched/req_srpt.hpp"

#include "trace/tracer.hpp"

namespace das::sched {

void ReqSrptScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "SRPT queue size drifted from accounting");
  queue_.check_invariants();
  queue_.for_each([](std::size_t, double key, const OpContext&) {
    DAS_AUDIT(key >= 0, "negative remaining total demand");
  });
  std::size_t request_handles = 0;
  for (const auto& [request, handles] : by_request_) {
    DAS_AUDIT(!handles.empty(), "empty per-request handle set not pruned");
    request_handles += handles.size();
    for (const Handle h : handles) {
      DAS_AUDIT(queue_.contains(h), "per-request index holds a served handle");
      DAS_AUDIT(queue_.at(h).request_id == request,
                "per-request index points at the wrong request");
    }
  }
  DAS_AUDIT(request_handles == queue_.size(),
            "per-request index does not partition the queue");
}

void ReqSrptScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  const double key = copy.total_demand_us;
  by_request_[op.request_id].push_back(queue_.insert(key, std::move(copy)));
}

OpContext ReqSrptScheduler::take(Handle h) {
  OpContext op = queue_.remove(h);
  const auto it = by_request_.find(op.request_id);
  if (it != by_request_.end()) {
    std::erase(it->second, h);
    if (it->second.empty()) by_request_.erase(it);
  }
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
  const auto it = by_request_.find(request);
  if (it == by_request_.end()) return;
  for (const Handle h : it->second) {
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
