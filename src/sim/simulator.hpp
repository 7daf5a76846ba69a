// Discrete-event simulation engine.
//
// A Simulator owns a time-ordered event queue. Events at equal timestamps
// dispatch in scheduling order (a monotone sequence number breaks ties), so
// runs are fully deterministic. The queue is two structures merged by
// (t, seq) at dispatch:
//
//  - a binary min-heap for timers and everything else scheduled with
//    schedule_at/schedule_after. Cancellation is lazy: cancelled events stay
//    in the heap and are skipped at pop time, which keeps schedule/cancel
//    O(log n) without an indexed heap. When dead (cancelled-but-still-queued)
//    nodes come to outnumber live heap nodes the heap is compacted — rebuilt
//    from the live nodes only — so workloads that cancel almost every timer
//    they set (hedging, retransmission) keep it proportional to the live
//    timer count. Compaction preserves the (t, seq) dispatch order exactly.
//  - a FIFO delivery lane for network deliveries (schedule_delivery). A
//    delivery is not a callback but a 32-bit ticket that the simulator hands
//    to the one MessageSink at dispatch; the sink owns the message it names.
//    A delivery is never cancelled and, under constant latency, is never due
//    before the one scheduled just ahead of it, so the lane is sorted by
//    construction and push/pop are O(1). A delivery due earlier than the
//    lane's tail (latency jitter) goes to the heap as the same ticketed
//    entry, which keeps the lane sorted and the merged order exact.
//
// Storage is split for throughput: heap and lane hold 24-byte POD entries
// {t, seq, slot, ticket} (sift operations are raw copies, no callable
// moves), and timer callbacks live in a slab of pooled slots recycled
// through a free list — no per-event allocation once the slab has grown to
// the high-water mark. A slot's current sequence number doubles as the
// liveness test: an EventHandle (and a queue entry) names {slot, seq}, and
// cancel/fire bumps the slot's seq to 0, so stale handles and dead heap
// entries are recognized by a single integer compare instead of a hash-set
// lookup per event. A delivery entry names no slot and is always live.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/invariant.hpp"
#include "common/small_fn.hpp"
#include "common/types.hpp"

namespace das::sim {

/// Event callback: a timer-sized closure. The 56-byte buffer makes the whole
/// callable 64 bytes and holds every closure the simulator schedules (the
/// largest in src/ is the cluster's fault event, 40 bytes); anything bigger
/// falls back to the heap rather than failing to compile. Messages never
/// travel as closures: see MessageSink.
using EventFn = SmallFn<56>;
static_assert(sizeof(EventFn) <= 64, "EventFn must stay timer-sized");

/// Names one message in flight. Its owner (the MessageSink) decides what it
/// encodes; the simulator only carries it from schedule_delivery to dispatch.
using Ticket = std::uint32_t;

/// Receives every delivery the simulator dispatches. The sink resolves the
/// ticket to the message it parked and runs the receiver's handler.
class MessageSink {
 public:
  virtual void deliver(Ticket ticket) = 0;

 protected:
  ~MessageSink() = default;
};

/// Opaque ticket for a scheduled event; valid until the event fires or is
/// cancelled. Default-constructed handles refer to no event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  // 0 = no event (sequence numbers start at 1)
};

class Simulator : public Auditable {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now()). The EventFn overload
  /// serves pre-built callbacks (and rejects null ones); the template
  /// overload constructs a plain closure directly in its pooled slot, so the
  /// capture moves exactly once, call site -> slab.
  EventHandle schedule_at(SimTime t, EventFn fn) {
    DAS_CHECK(fn != nullptr);
    return schedule_impl(t, std::move(fn));
  }
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                            std::is_invocable_v<std::remove_cvref_t<F>&>>>
  EventHandle schedule_at(SimTime t, F&& fn) {
    return schedule_impl(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(Duration delay, EventFn fn) {
    DAS_CHECK(fn != nullptr);
    DAS_CHECK_MSG(delay >= 0, "delay must be non-negative");
    return schedule_impl(now_ + delay, std::move(fn));
  }
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                            std::is_invocable_v<std::remove_cvref_t<F>&>>>
  EventHandle schedule_after(Duration delay, F&& fn) {
    DAS_CHECK_MSG(delay >= 0, "delay must be non-negative");
    return schedule_impl(now_ + delay, std::forward<F>(fn));
  }

  /// Where deliveries go at dispatch. The sink must outlive every delivery
  /// it is handed (the cluster owns both).
  void set_message_sink(MessageSink* sink) { sink_ = sink; }

  /// Schedules the delivery of `ticket` to the message sink at absolute time
  /// `t` (>= now()). Returns no handle: deliveries are never cancelled. A
  /// delivery due no earlier than the lane's tail is appended to the FIFO
  /// lane in O(1); an earlier one (latency jitter) falls back to the heap.
  /// Either way it dispatches in the same global (t, seq) order as
  /// schedule_at would give it.
  void schedule_delivery(SimTime t, Ticket ticket) {
    DAS_CHECK_MSG(sink_ != nullptr, "delivery scheduled without a message sink");
    DAS_CHECK_MSG(t >= now_, "cannot schedule into the past");
    const QueueEntry e{t, next_seq_++, kNoSlot, ticket};
    if (lane_size_ != 0 && t < lane_back().t) {
      queue_.push_back(e);
      std::push_heap(queue_.begin(), queue_.end());
      ++live_;
      maybe_compact();
      return;
    }
    lane_push(e);
    ++live_;
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid handle is a harmless no-op (idempotent). A handle is live iff
  /// its slot still carries the same sequence number; fired and cancelled
  /// events moved the slot on (or freed it), so stale and foreign handles
  /// fail the compare. The heap entry stays behind as a dead node, skipped
  /// lazily at pop time.
  void cancel(EventHandle h) {
    if (!h.valid()) return;
    if (h.slot_ >= slots_.size() || slots_[h.slot_].seq != h.seq_) return;
    release_slot(h.slot_);
    --live_;
    maybe_compact();
  }

  /// Runs until the queue is empty.
  void run();

  /// Runs until simulated time reaches `t` (events with timestamp <= t fire)
  /// or the queue empties. Afterwards now() == t if any horizon was reached.
  void run_until(SimTime t);

  /// Dispatches at most one event; returns false if the queue was empty.
  bool step();

  /// Live events, in the heap and in the delivery lane.
  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  std::uint64_t events_dispatched() const { return dispatched_; }
  /// Subset of events_dispatched() taken from the delivery lane.
  std::uint64_t lane_events() const { return lane_dispatched_; }
  /// Lane storage in entries: a power of two (or 0) at most twice the lane's
  /// peak occupancy, past a small floor — it never grows with the number of
  /// deliveries streamed through it.
  std::size_t lane_capacity() const { return lane_.size(); }

  /// --- lazy-cancel heap compaction ------------------------------------------
  /// Queue entries: heap nodes including dead (cancelled, not yet reclaimed)
  /// ones, plus lane entries (always live). The gap versus pending() is the
  /// dead-node count that compaction bounds.
  std::size_t queued_nodes() const { return queue_.size() + lane_size_; }
  /// Times the heap has been rebuilt from its live nodes.
  std::uint64_t compactions() const { return compactions_; }
  /// Disabling compaction restores pure lazy cancellation (tests use this to
  /// show compaction is behaviour-preserving). Dispatch order is identical
  /// either way.
  void set_compaction_enabled(bool enabled) { compaction_enabled_ = enabled; }
  bool compaction_enabled() const { return compaction_enabled_; }

  /// Pooled timer-callback slots currently allocated (the slab's high-water
  /// mark; introspection for tests — steady-state runs stop growing it).
  /// Deliveries hold no slot.
  std::size_t slab_slots() const { return slots_.size(); }

  /// --- invariant auditing ---------------------------------------------------
  /// Registers a component to audit alongside the simulator itself. The
  /// pointer must outlive the simulator (the cluster owns both). Audits run
  /// every `cadence` dispatched events (set_audit_cadence) and on audit_now().
  void add_auditable(const Auditable* auditable);

  /// Audit every `every_n_events` dispatched events; 0 disables (default).
  /// Event timestamps are checked between dispatches, so the cadence also
  /// verifies time monotonicity continuously.
  void set_audit_cadence(std::uint64_t every_n_events) { audit_cadence_ = every_n_events; }
  std::uint64_t audit_cadence() const { return audit_cadence_; }
  std::uint64_t audits_run() const { return audits_run_; }

  /// Audits the simulator and every registered component immediately.
  /// Throws AuditError on the first violation.
  void audit_now() const;

  /// Simulator-local invariants: the heap is a heap, the lane is sorted by
  /// (t, seq) and holds only deliveries, no live event is scheduled in the
  /// past, live heap timers name exactly the occupied slab slots (so occupied
  /// slots plus queued deliveries equal the live count), the free list is
  /// consistent with them, and (when compaction is enabled) dead heap nodes
  /// never outnumber live ones once the heap is past the compaction floor.
  void check_invariants() const override;

 private:
  friend struct TestCorruptor;  // audit tests break invariants on purpose

  /// POD queue node (heap or lane): sift operations copy 24 bytes and never
  /// touch a callback. A timer names its slab slot, and `seq` snapshots the
  /// slot's sequence number at scheduling time: the entry is dead iff the
  /// slot has since moved on. A delivery names no slot (kNoSlot) and carries
  /// its ticket in what would otherwise be padding; it is always live.
  struct QueueEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    Ticket ticket;
    bool delivery() const { return slot == kNoSlot; }
    /// Dispatch order: (t, seq) ascending.
    bool before(const QueueEntry& other) const {
      return t != other.t ? t < other.t : seq < other.seq;
    }
    // Min-heap by (t, seq): std::push_heap builds a max-heap, so invert.
    bool operator<(const QueueEntry& other) const { return other.before(*this); }
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One pooled callback. `seq` == 0 marks a free slot (then `next_free`
  /// chains the free list).
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;
    std::uint32_t next_free = kNoSlot;
  };

  bool entry_live(const QueueEntry& e) const {
    return e.delivery() || slots_[e.slot].seq == e.seq;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    DAS_CHECK_MSG(slots_.size() < kNoSlot, "event slab exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Destroys the slot's callback and returns it to the free list.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn = nullptr;  // destroy the callback now, releasing its captures
    s.seq = 0;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Moves `fn` into a pooled slot stamped with `seq`; returns the slot.
  template <typename F>
  std::uint32_t fill_slot(std::uint64_t seq, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    try {
      s.fn = std::forward<F>(fn);
    } catch (...) {
      // The callable's own copy/move threw (or its heap fallback failed);
      // the slot is still marked free (seq 0), so just rechain it.
      release_slot(slot);
      throw;
    }
    s.seq = seq;
    return slot;
  }

  template <typename F>
  EventHandle schedule_impl(SimTime t, F&& fn) {
    DAS_CHECK_MSG(t >= now_, "cannot schedule into the past");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = fill_slot(seq, std::forward<F>(fn));
    queue_.push_back(QueueEntry{t, seq, slot, 0});
    std::push_heap(queue_.begin(), queue_.end());
    ++live_;
    // Growth can carry the queue across the compaction floor with a backlog
    // of dead nodes accumulated while it was too small to bother compacting.
    maybe_compact();
    return EventHandle{slot, seq};
  }

  /// --- delivery lane: a ring buffer, capacity 0 or a power of two ---------
  const QueueEntry& lane_front() const { return lane_[lane_head_]; }
  const QueueEntry& lane_back() const {
    return lane_[(lane_head_ + lane_size_ - 1) & (lane_.size() - 1)];
  }
  void lane_push(const QueueEntry& e) {
    if (lane_size_ == lane_.size()) grow_lane();
    lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = e;
    ++lane_size_;
  }
  void lane_pop() {
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
  }
  /// Doubles the ring (from kMinLaneCapacity), unrolling it to start at 0.
  void grow_lane();
  static constexpr std::size_t kMinLaneCapacity = 16;

  /// Pops the next live event with t <= horizon — the earlier by (t, seq)
  /// of the heap top and the lane front — into `e`, moving a timer's
  /// callback into `fn`. Dead heap entries encountered on the way are
  /// dropped. Returns false when drained or when the next live event lies
  /// beyond the horizon (which it peeks without disturbing).
  bool pop_next(SimTime horizon, QueueEntry& e, EventFn& fn);
  /// Advances the clock to a popped event and runs it: a delivery goes to
  /// the message sink, a timer runs the callback pop_next moved out.
  void dispatch(const QueueEntry& e, EventFn& fn);

  /// Rebuilds the heap from its live nodes when dead ones outnumber them.
  /// Called after every operation that can raise the heap's dead fraction
  /// (cancel, heap push and heap pop), so the dead <= live bound in
  /// check_invariants() always holds. Lane entries are never dead, so the
  /// rule counts heap nodes only. The threshold test is inline (a few loads
  /// on the hot path); the rebuild itself is out of line.
  void maybe_compact() {
    if (!compaction_enabled_ || queue_.size() < kCompactionFloor) return;
    const std::size_t heap_live = live_ - lane_size_;
    if ((queue_.size() - heap_live) * 2 <= queue_.size()) return;
    compact();
  }
  void compact();

  /// Below this many heap nodes compaction never triggers: rebuilding a tiny
  /// heap saves nothing and the invariant bound would be noisy.
  static constexpr std::size_t kCompactionFloor = 64;

  /// Runs the cadence audit when one is due.
  void maybe_audit() const;

  std::vector<QueueEntry> queue_;  // the heap
  std::vector<QueueEntry> lane_;   // the delivery ring
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  std::uint64_t lane_dispatched_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  MessageSink* sink_ = nullptr;
  std::size_t live_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  // 0 is the invalid-handle sentinel
  std::uint64_t dispatched_ = 0;
  std::uint64_t compactions_ = 0;
  bool compaction_enabled_ = true;
  std::vector<const Auditable*> auditables_;
  std::uint64_t audit_cadence_ = 0;
  mutable std::uint64_t audits_run_ = 0;
};

/// Repeats a callback with a fixed period until stopped. The callback runs
/// at start + period, start + 2*period, ...; stop() cancels the pending
/// occurrence and prevents future ones. Safe to stop — and to restart via
/// stop() + start() — from within the callback itself; a restart owns the
/// schedule (exactly one chain of events ever exists).
class PeriodicProcess {
 public:
  PeriodicProcess(Simulator& sim, Duration period, EventFn fn);
  ~PeriodicProcess();
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

 private:
  void fire();

  Simulator& sim_;
  Duration period_;
  EventFn fn_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace das::sim
