#include "sched/basic_policies.hpp"

namespace das::sched {

void FcfsScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "FCFS queue size drifted from accounting");
  SimTime prev = 0;
  for (const OpContext& op : queue_) {
    DAS_AUDIT(op.demand_us >= 0, "queued op with negative demand");
    DAS_AUDIT(op.enqueued_at >= prev, "FCFS queue out of arrival order");
    prev = op.enqueued_at;
  }
}

void RandomScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "Random queue size drifted from accounting");
  for (const OpContext& op : queue_) {
    DAS_AUDIT(op.demand_us >= 0, "queued op with negative demand");
  }
}

void FrozenKeyScheduler::check_policy_invariants() const {
  DAS_AUDIT(queue_.size() == size(), "priority queue size drifted from accounting");
  queue_.check_invariants();
}

void FcfsScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  queue_.push_back(std::move(copy));
}

OpContext FcfsScheduler::dequeue(SimTime) {
  DAS_CHECK(!queue_.empty());
  OpContext op = std::move(queue_.front());
  queue_.pop_front();
  note_out(op);
  return op;
}

std::vector<OpContext> FcfsScheduler::drain(SimTime now) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) out.push_back(dequeue(now));
  return out;
}

void RandomScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  queue_.push_back(std::move(copy));
}

OpContext RandomScheduler::dequeue(SimTime) {
  DAS_CHECK(!queue_.empty());
  const std::size_t idx =
      static_cast<std::size_t>(rng_.next_below(queue_.size()));
  std::swap(queue_[idx], queue_.back());
  OpContext op = std::move(queue_.back());
  queue_.pop_back();
  note_out(op);
  return op;
}

std::vector<OpContext> RandomScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  for (OpContext& op : queue_) {
    note_out(op);
    out.push_back(std::move(op));
  }
  queue_.clear();
  return out;
}

void FrozenKeyScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);
  queue_.insert(copy.*key_, std::move(copy));
}

OpContext FrozenKeyScheduler::dequeue(SimTime) {
  OpContext op = queue_.pop_min();
  note_out(op);
  return op;
}

std::vector<OpContext> FrozenKeyScheduler::drain(SimTime now) {
  std::vector<OpContext> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) out.push_back(dequeue(now));
  return out;
}

}  // namespace das::sched
