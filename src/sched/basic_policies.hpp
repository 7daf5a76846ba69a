// Baseline policies: FCFS, Random, SJF, EDF.
//
// These need no request-level feedback; their priority is frozen at enqueue.
// They exist both as the paper's comparison points (FCFS is the stores'
// default) and as controls in the test suite.
#pragma once

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "sched/keyed_queue.hpp"
#include "sched/scheduler_base.hpp"

namespace das::sched {

/// First-come first-served: the default behaviour of memcached/Redis-style
/// stores and the paper's primary baseline.
class FcfsScheduler final : public SchedulerBase {
 public:
  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;
  std::deque<OpContext> queue_;
};

/// Uniformly random order; a sanity floor — any informed policy must beat it.
class RandomScheduler final : public SchedulerBase {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  /// Drains in arrival order: a crash drop must not consume randomness.
  std::vector<OpContext> drain(SimTime now) override;

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;
  std::vector<OpContext> queue_;
  Rng rng_;
};

/// Serves the minimum of a key frozen at enqueue, ties by arrival.
class FrozenKeyScheduler : public SchedulerBase {
 public:
  explicit FrozenKeyScheduler(double OpContext::*key) : key_(key) {}
  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;
  double OpContext::*key_;
  KeyedQueue<double> queue_;
};

/// Shortest (local) job first: orders by the op's own demand only, ignoring
/// the request structure. Separates "size awareness" from "fork-join
/// awareness" in the evaluation.
class SjfScheduler final : public FrozenKeyScheduler {
 public:
  SjfScheduler() : FrozenKeyScheduler(&OpContext::demand_us) {}
};

/// Earliest deadline first on the request deadline tag.
class EdfScheduler final : public FrozenKeyScheduler {
 public:
  EdfScheduler() : FrozenKeyScheduler(&OpContext::deadline) {}
};

}  // namespace das::sched
