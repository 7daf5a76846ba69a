// DAS — the Distributed Adaptive Scheduler (the paper's contribution).
//
// "A distributed combination of the largest remaining processing time last
// and shortest remaining processing time first algorithms" (the abstract)
// maps onto two mechanisms driven by client-computed tags:
//
//   SRPT-first — the runnable queue is ordered by the request's REMAINING
//       PROCESSING TIME: its total remaining service demand across all
//       servers (`total_demand_us`, shrunk by progress messages as siblings
//       complete). Requests that need the least further service finish
//       first, draining the in-flight population fastest — the classic
//       mean-flow-time argument, lifted to the fork-join setting. The key
//       deliberately contains no queueing-delay term: queueing is the
//       scheduler's own decision variable, and folding it into the priority
//       collapses the ordering back to FCFS under load.
//
//   LRPT-last — an operation whose request still has a LARGE remaining time
//       elsewhere gains nothing from running early here. The client tags
//       each op with `est_other_completion`, the earliest ABSOLUTE time its
//       request could complete considering only siblings on OTHER servers
//       (tag time + rtt + advertised delay + service). While that bound lies
//       beyond this server's drain horizon (backlog / mu_hat), even serving
//       the op dead last cannot hurt its request, so it parks in a deferred
//       lane and yields to operations on their request's critical path.
//
// Adaptivity enters in three places: the client's per-server mu/delay
// estimates feeding the tags (learned from response piggybacks), the
// server's own EWMA speed estimate mu_hat scaling the drain horizon, and
// progress messages re-keying queued operations when siblings complete. An
// aging bound serves the globally oldest operation unconditionally once its
// wait exceeds max_wait, preventing starvation of wide requests.
//
// Each mechanism switches off independently for the ablation study, and the
// primary key can be switched to the request's critical-path remaining time
// (max instead of sum) to quantify why total remaining is the right notion.
// With deferral and aging off, what remains is request-level SRPT, the
// `req-srpt` baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/flat_map.hpp"
#include "sched/keyed_queue.hpp"
#include "sched/scheduler_base.hpp"

namespace das::sched {

class DasScheduler final : public SchedulerBase {
 public:
  /// What "remaining processing time" means for the SRPT-first ordering.
  enum class PrimaryKey {
    /// Total remaining service demand of the request (the paper's notion;
    /// matches concurrent-open-shop theory for the sum objective).
    kTotalRemaining,
    /// Critical-path remaining time (max per-server remaining); an ablation
    /// that quantifies why the total is the right notion.
    kCriticalPath,
  };

  struct Options {
    /// Track the server's speed estimate; false freezes mu_hat at its
    /// initial value (the DAS-NA ablation's server half).
    bool adaptive = true;
    /// Enable the LRPT-last deferred set; false = pure SRPT-first
    /// (the DAS-ND ablation).
    bool defer = true;
    /// Starvation bound; infinity disables aging.
    Duration max_wait_us = 50.0 * kMillisecond;
    /// Margin multiplier on the safe-deferral test; > 1 defers less.
    double defer_margin = 2.0;
    PrimaryKey primary_key = PrimaryKey::kTotalRemaining;
  };

  explicit DasScheduler(Options options);

  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;
  void on_request_progress(RequestId request, const ProgressUpdate& update,
                           SimTime now) override;
  void on_speed_estimate(double speed) override;
  /// Oracle-mode preemption on the primary key (only used when the server
  /// runs preemptively; the paper's DAS is non-preemptive).
  bool preempts(const OpContext& incoming, const OpContext& in_service) const override;

  double speed_estimate() const { return mu_hat_; }

  MechanismCounters mechanism_counters() const override {
    return {total_deferrals_, resumes_, aging_promotions_, reranks_,
            progress_rekeyed_, progress_unqueued_};
  }
  std::size_t deferred_size() const override {
    return queue_.lane_size(kDeferred);
  }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;

  /// Runnable ops wait SRPT-first on the active key; deferred ops wait
  /// ordered by deferral expiry (est_other_completion).
  enum Lane : std::size_t { kRunnable = 0, kDeferred = 1 };

  struct Queued {
    OpContext op;
    /// When the current deferral episode began (valid in the deferred lane).
    SimTime defer_started = 0;
    /// The next queued op of the same request, in arrival order; invalid at
    /// the end of the chain.
    QueueHandle next;
  };

  using Queue = KeyedQueue<double, Queued, 2>;
  using Handle = Queue::Handle;

  /// A request's queued ops: a chain through Queued::next, oldest first.
  struct Chain {
    Handle head;
    Handle tail;
  };

  /// Estimated time to drain the entire current backlog at current speed.
  Duration drain_time_us() const;
  double active_key(const OpContext& op) const;
  double active_key(const ProgressUpdate& update) const;
  double lane_key(const OpContext& op, Lane lane) const;
  bool safe_to_defer(SimTime est_other_completion, SimTime now) const;
  /// The lane the op belongs in now; opens a deferral episode if deferred.
  Lane place(Queued& q, SimTime now);
  /// Closes the op's deferral episode, if any, into its deferred wait.
  void close_deferral(Handle h, SimTime now);
  /// Takes a queued op out of its request's chain.
  void unlink(Handle h);
  OpContext finish(Handle h, SimTime now);
  void migrate_due(SimTime now);

  Options options_;
  double mu_hat_ = 1.0;

  Queue queue_;
  // Arrival order, for aging and the crash drain; the head is always queued.
  std::deque<Handle> fifo_;
  /// Each request's queued ops in arrival order: the progress fan-in. The
  /// chain lives in the queued ops themselves, so queueing an op allocates
  /// nothing here beyond the map entry of a new request.
  FlatMap<RequestId, Chain> by_request_;
  std::uint64_t total_deferrals_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t aging_promotions_ = 0;
  std::uint64_t reranks_ = 0;
  std::uint64_t progress_rekeyed_ = 0;
  std::uint64_t progress_unqueued_ = 0;
};

}  // namespace das::sched
