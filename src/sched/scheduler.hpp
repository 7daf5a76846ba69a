// Per-server operation scheduler interface and policy factory.
//
// A Scheduler owns the queue of pending operations of one server. The server
// asks for the next operation whenever it goes idle; policies differ only in
// the dequeue order. All policies are non-preemptive at operation
// granularity (a started get runs to completion), which is how real stores
// behave and what the paper assumes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sched/op_context.hpp"

namespace das::trace {
class Tracer;
}  // namespace das::trace

namespace das::sched {

/// How often each scheduling mechanism actually fired over a scheduler's
/// lifetime; policies report zero for mechanisms they do not implement.
/// Summed over servers into ExperimentResult for the ablation study.
struct MechanismCounters {
  std::uint64_t ops_deferred = 0;     // LRPT-last parked an op (DAS)
  std::uint64_t ops_resumed = 0;      // deferral window closed; op woke up
  std::uint64_t ops_aged = 0;         // starvation bound served the oldest op
  std::uint64_t reranks_applied = 0;  // progress message re-keyed a queued op
  /// Outcomes of progress messages: re-keyed at least one queued op, or
  /// found no queued op of their request (in service, served, or not yet
  /// arrived). Their sum falls short of the messages received only by those
  /// whose every queued op already carried the new tags.
  std::uint64_t progress_rekeyed = 0;
  std::uint64_t progress_unqueued = 0;
};

/// Schedulers are Auditable: check_invariants() verifies conservation
/// (every enqueued op is still queued or was dequeued), nonnegative backlog
/// and remaining-work tags, and the consistency of the policy's internal
/// order structures. See SchedulerBase.
class Scheduler : public Auditable {
 public:
  ~Scheduler() override = default;

  /// Adds an operation to the queue. `now` is the server-local arrival time.
  virtual void enqueue(const OpContext& op, SimTime now) = 0;

  /// Removes and returns the next operation to serve.
  /// Precondition: !empty().
  virtual OpContext dequeue(SimTime now) = 0;

  /// Crash support: removes and returns EVERY queued operation — runnable
  /// and deferred alike — leaving the scheduler empty but reusable (a
  /// recovered server enqueues into the same instance). The ops are being
  /// dropped, not served, so implementations must keep the conservation
  /// accounting consistent (each drained op counts as dequeued), consume no
  /// randomness, and emit no tracer or mechanism-counter events.
  virtual std::vector<OpContext> drain(SimTime now) = 0;

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;

  /// Sum of nominal demand (µs) of all queued operations; feeds the server's
  /// advertised delay estimate and the load metrics.
  virtual double backlog_demand_us() const = 0;

  /// Progress notification from the client side: a sibling operation of
  /// `request` completed and its scheduling estimates moved. Policies without
  /// request state ignore it.
  virtual void on_request_progress(RequestId request, const ProgressUpdate& update,
                                   SimTime now);

  /// The server's current service-speed estimate (work-µs per wall-µs, 1.0 =
  /// nominal). Adaptive policies use it to judge local queueing delay.
  virtual void on_speed_estimate(double speed);

  /// Preemption hook: should `incoming` interrupt `in_service`? Only
  /// consulted when the server runs in preemptive mode (an oracle-style
  /// upper bound — production stores serve operations to completion).
  /// `in_service.demand_us` holds the REMAINING demand. Default: never.
  virtual bool preempts(const OpContext& incoming, const OpContext& in_service) const;

  /// Lifetime mechanism-activation counters (zeros unless overridden).
  virtual MechanismCounters mechanism_counters() const { return {}; }

  /// Ops currently parked in a deferred set; 0 for policies without one.
  /// size() always counts runnable + deferred together.
  virtual std::size_t deferred_size() const { return 0; }

  /// Attaches a lifecycle tracer (nullptr detaches). The scheduler emits
  /// defer/resume/re-rank/aging events tagged with `server`. Purely
  /// observational: attaching a tracer never changes scheduling decisions.
  void set_tracer(trace::Tracer* tracer, ServerId server) {
    tracer_ = tracer;
    tracer_server_ = server;
  }

 protected:
  trace::Tracer* tracer_ = nullptr;
  ServerId tracer_server_ = kInvalidServer;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// The policies under study, each one row of the table in scheduler.cpp.
/// `kDas*` variants are ablations of kDas; kReqSrpt is DAS minus deferral and
/// aging.
enum class Policy {
  kFcfs,
  kRandom,
  kSjf,
  kReqSrpt,
  kEdf,
  kReinSbf,
  kDas,
  kDasNoAdapt,    // DAS-NA: adaptive estimation disabled
  kDasNoDefer,    // DAS-ND: safe-deferral (LRPT-last) disabled
  kDasNoAging,    // DAS with starvation aging disabled
  kDasCritical,   // DAS ordering on critical-path remaining instead of total
};

/// Stable lower-case identifier, e.g. "fcfs", "rein-sbf", "das".
std::string to_string(Policy policy);
/// Inverse of to_string; throws std::invalid_argument naming the known
/// policies on an unknown name.
Policy policy_from_string(const std::string& name);
/// All policies in presentation order.
const std::vector<Policy>& all_policies();
/// Whether clients send the policy progress updates as siblings complete.
bool uses_progress(Policy policy);
/// Whether clients learn per-server delay/speed estimates from response
/// piggybacks; false leaves them a static view (zero delay, nominal speed).
bool learns_estimates(Policy policy);

/// Tuning shared by policy constructors; semantics per policy documented at
/// each implementation. Defaults reproduce the paper configuration; the rest
/// of a policy's tuning keeps its Options defaults.
struct SchedulerConfig {
  /// DAS / Rein anti-starvation: an op waiting longer than this is served
  /// next regardless of priority. Infinity disables aging.
  Duration max_wait_us = 50.0 * kMillisecond;
  /// Seed for randomized policies.
  std::uint64_t seed = 1;
};

SchedulerPtr make_scheduler(Policy policy, const SchedulerConfig& config = {});

}  // namespace das::sched
