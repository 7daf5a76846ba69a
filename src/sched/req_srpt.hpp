// Request-level shortest-remaining-processing-time.
//
// Orders by the TOTAL remaining service demand of the operation's request
// across all servers, shrinking as siblings complete (progress messages).
// This is the classic mean-flow-time heuristic lifted to the fork-join
// setting; it lacks DAS's bottleneck awareness (it cannot tell whether the
// remaining work is parallel or serial) and serves as the strongest
// request-aware non-DAS baseline.
#pragma once

#include <vector>

#include "sched/keyed_queue.hpp"
#include "sched/scheduler_base.hpp"

namespace das::sched {

class ReqSrptScheduler final : public SchedulerBase {
 public:
  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;
  void on_request_progress(RequestId request, const ProgressUpdate& update,
                           SimTime now) override;
  /// True preemptive SRPT when the server allows it: a strictly smaller
  /// remaining request interrupts the one in service.
  bool preempts(const OpContext& incoming, const OpContext& in_service) const override;
  std::string name() const override { return "req-srpt"; }

  MechanismCounters mechanism_counters() const override {
    return {0, 0, 0, reranks_};
  }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;

  using Handle = KeyedQueue<double>::Handle;

  /// Keyed by the request's current total remaining demand.
  KeyedQueue<double> queue_;
  RequestIndex<KeyedQueue<double>> by_request_;
  std::uint64_t reranks_ = 0;

  OpContext take(Handle h);
};

}  // namespace das::sched
