// The invariant-audit layer must (a) stay silent on healthy structures and
// (b) throw AuditError when internal state is corrupted on purpose. The
// corruptions below simulate exactly the drift bugs the audits exist to
// catch: broken heap order, heap nodes and slots that disagree, desynced
// accounting, stale or negative keys, and aging indexes that lose track of
// queued operations.
#include <gtest/gtest.h>

#include <string>

#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "sched/basic_policies.hpp"
#include "sched/das.hpp"
#include "sched/keyed_queue.hpp"
#include "sched/rein.hpp"
#include "sched/scheduler.hpp"
#include "sched_test_util.hpp"

namespace das::sched {

/// White-box corruption hooks; friend of the queue and every scheduler.
struct TestCorruptor {
  static void bump_count(SchedulerBase& s) { ++s.count_; }
  static void poison_backlog(SchedulerBase& s) { s.backlog_us_ = -5.0; }

  // KeyedQueue: lane-0 heap nodes and the slots they name.
  template <typename Q>
  static void free_front_slot(Q& q) {  // the slot dies, its node stays
    q.slots_[q.heaps_[0].front().slot].seq = 0;
  }
  template <typename Q>
  static void negate_demand(Q& q) {
    q.slots_[q.heaps_[0].front().slot].value.demand_us = -1.0;
  }
  template <typename Q>
  static void duplicate_front_node(Q& q) {
    q.heaps_[0].push_back(q.heaps_[0].front());
  }
  template <typename Q>
  static void raise_front_key(Q& q) {  // the root outgrows its children
    q.heaps_[0].front().key += 1e9;
  }
  template <typename Q>
  static void lower_front_key(Q& q) {  // heap order survives, the key is wrong
    q.heaps_[0].front().key = -1.0;
  }
  template <typename Q>
  static void swap_back_pointers(Q& q) {
    std::swap(q.slots_[q.heaps_[0][0].slot].pos, q.slots_[q.heaps_[0][1].slot].pos);
  }
  template <typename Q>
  static void unlink_back_node(Q& q) {  // the slot stays live in no lane
    q.heaps_[0].pop_back();
  }

  static void lose_fifo_entry(DasScheduler& s) { s.fifo_.pop_front(); }
  /// Points a request's chain tail back at its head.
  static void stale_chain_tail(DasScheduler& s, RequestId request) {
    DasScheduler::Chain& chain = s.by_request_.at(request);
    chain.tail = chain.head;
  }
  static std::size_t fifo_size(const DasScheduler& s) { return s.fifo_.size(); }
  static DasScheduler::Queue& queue(DasScheduler& s) { return s.queue_; }
  static void negate_remaining(DasScheduler& s) {
    s.queue_.slots_[s.queue_.heaps_[0].front().slot].value.op.remaining_critical_us =
        -1.0;
  }

  static void reorder_lane(ReinSbfScheduler& s) {
    std::swap(s.lanes_[0].front().arrival_seq, s.lanes_[0].back().arrival_seq);
  }
  static void negate_threshold(ReinSbfScheduler& s) {
    s.ewma_bottleneck_ = -1.0;
  }

  static void reorder_fcfs(FcfsScheduler& s) {
    std::swap(s.queue_.front().enqueued_at, s.queue_.back().enqueued_at);
  }

  static KeyedQueue<double>& queue(FrozenKeyScheduler& s) { return s.queue_; }
};

namespace {

using testing::OpBuilder;

OpContext op(OperationId id, double demand = 10.0) {
  return OpBuilder{id}.demand(demand).build();
}

template <typename S>
void fill(S& s, int n) {
  for (int i = 0; i < n; ++i) {
    s.enqueue(op(static_cast<OperationId>(i), 10.0 + i), static_cast<double>(i));
  }
}

// --- healthy structures audit clean ----------------------------------------

TEST(InvariantAudit, HealthySchedulersPass) {
  for (const Policy policy : all_policies()) {
    const std::string name = to_string(policy);
    const SchedulerPtr s = make_scheduler(policy);
    EXPECT_NO_THROW(s->check_invariants()) << "empty " << name;
    for (int i = 0; i < 16; ++i) {
      s->enqueue(op(static_cast<OperationId>(i), 5.0 + i), static_cast<double>(i));
    }
    EXPECT_NO_THROW(s->check_invariants()) << "filled " << name;
    for (int i = 0; i < 9; ++i) s->dequeue(100.0);
    EXPECT_NO_THROW(s->check_invariants()) << "drained " << name;
    while (!s->empty()) s->dequeue(200.0);
    EXPECT_NO_THROW(s->check_invariants()) << "empty again " << name;
  }
}

TEST(InvariantAudit, HealthyKeyedQueuePasses) {
  KeyedQueue<double> q;
  EXPECT_NO_THROW(q.check_invariants());
  for (int i = 0; i < 8; ++i) {
    q.insert(static_cast<double>(i % 3), op(static_cast<OperationId>(i)));
  }
  q.pop_min();
  EXPECT_NO_THROW(q.check_invariants());
}

// --- accounting corruption (shared SchedulerBase layer) ---------------------

TEST(InvariantAudit, CountDriftThrows) {
  FcfsScheduler s;
  fill(s, 4);
  TestCorruptor::bump_count(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, NegativeBacklogOnEmptyThrows) {
  SjfScheduler s;
  TestCorruptor::poison_backlog(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- KeyedQueue corruption --------------------------------------------------

KeyedQueue<double> filled_queue() {
  KeyedQueue<double> q;
  for (int i = 0; i < 6; ++i) {
    q.insert(static_cast<double>(i % 3), op(static_cast<OperationId>(i)));
  }
  return q;
}

TEST(InvariantAudit, KeyedQueueLostOpThrows) {
  KeyedQueue<double> q = filled_queue();
  TestCorruptor::free_front_slot(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueNegativeDemandThrows) {
  KeyedQueue<double> q = filled_queue();
  TestCorruptor::negate_demand(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueDuplicatedHandleThrows) {
  KeyedQueue<double> q = filled_queue();
  TestCorruptor::duplicate_front_node(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueHeapOrderViolationThrows) {
  KeyedQueue<double> q = filled_queue();
  TestCorruptor::raise_front_key(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueBackPointerMismatchThrows) {
  KeyedQueue<double> q = filled_queue();
  TestCorruptor::swap_back_pointers(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, KeyedQueueLiveSlotInNoLaneThrows) {
  KeyedQueue<double> q = filled_queue();
  TestCorruptor::unlink_back_node(q);
  EXPECT_THROW(q.check_invariants(), AuditError);
}

TEST(InvariantAudit, CorruptedKeyedQueueFailsOwningScheduler) {
  // The SJF audit delegates to its queue, so queue corruption surfaces
  // through the scheduler's own check_invariants().
  SjfScheduler s;
  fill(s, 3);
  TestCorruptor::negate_demand(TestCorruptor::queue(s));
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- DAS corruption ----------------------------------------------------------

TEST(InvariantAudit, DasAgingFifoLossThrows) {
  DasScheduler s{{}};
  fill(s, 4);
  TestCorruptor::lose_fifo_entry(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasFifoEmptiesWithTheQueueWithoutAging) {
  // With aging off the fifo still sheds served ops, so a long run leaves it
  // no longer than the queue instead of holding every op ever enqueued.
  DasScheduler::Options opt;
  opt.max_wait_us = kTimeInfinity;
  DasScheduler s{opt};
  Rng rng{5};
  SimTime now = 0;
  OperationId next = 0;
  for (int step = 0; step < 20000; ++step) {
    now += 1.0;
    if (s.empty() || rng.chance(0.5)) {
      s.enqueue(OpBuilder{next++}.total(rng.uniform(1, 400)).build(), now);
    } else {
      s.dequeue(now);
    }
  }
  EXPECT_NO_THROW(s.check_invariants());
  while (!s.empty()) s.dequeue(now += 1.0);
  EXPECT_LE(TestCorruptor::fifo_size(s), s.size());
  EXPECT_NO_THROW(s.check_invariants());
}

TEST(InvariantAudit, DasOrderSetDesyncThrows) {
  // A queued op drops out of the runnable lane without being served.
  DasScheduler s{{}};
  fill(s, 4);
  TestCorruptor::unlink_back_node(TestCorruptor::queue(s));
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasStaleOrderingKeyThrows) {
  // The lane stays a valid heap, but the front's key no longer matches its
  // op's active key — only the DAS audit can see that.
  DasScheduler s{{}};
  fill(s, 4);
  TestCorruptor::lower_front_key(TestCorruptor::queue(s));
  EXPECT_NO_THROW(TestCorruptor::queue(s).check_invariants());
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasStaleRequestChainThrows) {
  // Progress reaches a request's queued ops through a chain in arrival
  // order; a tail that is not the chain's last op would append the next
  // sibling in the wrong place.
  DasScheduler s{{}};
  for (OperationId id = 1; id <= 3; ++id) {
    s.enqueue(OpBuilder{id}.request(7).total(10.0 * static_cast<double>(id)).build(),
              0.0);
  }
  s.enqueue(OpBuilder{4}.request(8).total(5.0).build(), 0.0);
  EXPECT_NO_THROW(s.check_invariants());
  TestCorruptor::stale_chain_tail(s, 7);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, DasNegativeRemainingThrows) {
  DasScheduler s{{}};
  fill(s, 2);
  TestCorruptor::negate_remaining(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// --- Rein / SRPT corruption --------------------------------------------------

TEST(InvariantAudit, ReinLevelOutOfArrivalOrderThrows) {
  ReinSbfScheduler s{{}};
  fill(s, 4);
  TestCorruptor::reorder_lane(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

TEST(InvariantAudit, ReinNegativeThresholdThrows) {
  ReinSbfScheduler s{{}};
  fill(s, 2);
  TestCorruptor::negate_threshold(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

// req-srpt is the DAS option set with deferral and aging off.
DasScheduler& as_das(const SchedulerPtr& s) { return dynamic_cast<DasScheduler&>(*s); }

TEST(InvariantAudit, SrptHeapPositionMismatchThrows) {
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  fill(*s, 3);
  TestCorruptor::swap_back_pointers(TestCorruptor::queue(as_das(s)));
  EXPECT_THROW(s->check_invariants(), AuditError);
}

TEST(InvariantAudit, SrptNegativeRemainingThrows) {
  // A negative stored key keeps the heap valid (it only moves to the front)
  // but is no remaining total demand.
  const SchedulerPtr s = make_scheduler(Policy::kReqSrpt);
  fill(*s, 3);
  TestCorruptor::lower_front_key(TestCorruptor::queue(as_das(s)));
  EXPECT_NO_THROW(TestCorruptor::queue(as_das(s)).check_invariants());
  EXPECT_THROW(s->check_invariants(), AuditError);
}

// --- FCFS ordering -----------------------------------------------------------

TEST(InvariantAudit, FcfsOutOfOrderThrows) {
  FcfsScheduler s;
  fill(s, 4);
  TestCorruptor::reorder_fcfs(s);
  EXPECT_THROW(s.check_invariants(), AuditError);
}

}  // namespace
}  // namespace das::sched
