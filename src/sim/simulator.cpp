#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace das::sim {

void Simulator::compact() {
  std::erase_if(queue_, [this](const QueueEntry& e) { return !entry_live(e); });
  // Rebuilding cannot reorder dispatch: (t, seq) is a total order, so the
  // relative order of the surviving nodes is heap-shape-independent.
  std::make_heap(queue_.begin(), queue_.end());
  ++compactions_;
}

void Simulator::grow_lane() {
  std::vector<QueueEntry> grown(std::max(kMinLaneCapacity, 2 * lane_.size()));
  for (std::size_t i = 0; i < lane_size_; ++i) {
    grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
  }
  lane_ = std::move(grown);
  lane_head_ = 0;
}

bool Simulator::pop_next(SimTime horizon, QueueEntry& e, EventFn& fn) {
  // Cancelled heap tops are dead nodes: drop them so the heap's head, if
  // any, is the next live event.
  while (!queue_.empty() && !entry_live(queue_.front())) {
    std::pop_heap(queue_.begin(), queue_.end());
    queue_.pop_back();
  }
  // Both heads are the minima of their structures, so the earlier of the
  // two by (t, seq) is the global next event.
  const bool from_lane =
      lane_size_ != 0 && (queue_.empty() || lane_front().before(queue_.front()));
  if (from_lane) {
    // Peek before popping: a beyond-horizon event stays exactly where it
    // is, so run_until never disturbs the queue it leaves behind.
    e = lane_front();
    if (e.t > horizon) return false;
    lane_pop();
    ++lane_dispatched_;
  } else {
    if (queue_.empty() || queue_.front().t > horizon) return false;
    std::pop_heap(queue_.begin(), queue_.end());
    e = queue_.back();
    queue_.pop_back();
  }
  --live_;
  if (!e.delivery()) {
    // Move the callback out and recycle the slot BEFORE invoking: the
    // callback may schedule (growing the slab) or cancel, and a handle to
    // this event is already spent.
    fn = std::move(slots_[e.slot].fn);
    release_slot(e.slot);
  }
  // Popping a live heap node can tip the dead fraction past the threshold.
  if (!from_lane) maybe_compact();
  return true;
}

void Simulator::dispatch(const QueueEntry& e, EventFn& fn) {
  DAS_CHECK(e.t >= now_);
  now_ = e.t;
  ++dispatched_;
  if (e.delivery()) {
    sink_->deliver(e.ticket);
  } else {
    fn();
  }
  maybe_audit();
}

bool Simulator::step() {
  QueueEntry e{};
  EventFn fn;
  if (!pop_next(kTimeInfinity, e, fn)) return false;
  dispatch(e, fn);
  return true;
}

void Simulator::add_auditable(const Auditable* auditable) {
  DAS_CHECK(auditable != nullptr);
  auditables_.push_back(auditable);
}

void Simulator::check_invariants() const {
  DAS_AUDIT(std::is_heap(queue_.begin(), queue_.end()),
            "event queue lost the heap property");
  // Each live timer must be named by exactly one heap entry.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  const auto check_live = [&](const QueueEntry& e) {
    // Time monotonicity: dispatching any live event may never move the
    // clock backwards.
    DAS_AUDIT(e.t >= now_, "live event scheduled in the past");
    if (e.delivery()) {
      DAS_AUDIT(sink_ != nullptr, "queued delivery without a message sink");
      return;
    }
    DAS_AUDIT(!seen[e.slot], "two live queue entries share a slot");
    seen[e.slot] = 1;
    DAS_AUDIT(slots_[e.slot].fn != nullptr, "live event without a callback");
  };
  std::size_t heap_live = 0;
  std::size_t deliveries = 0;
  for (const QueueEntry& e : queue_) {
    DAS_AUDIT(e.delivery() || e.slot < slots_.size(),
              "heap entry names a slot out of range");
    DAS_AUDIT(e.seq != 0 && e.seq < next_seq_, "event sequence out of range");
    if (!entry_live(e)) continue;
    ++heap_live;
    if (e.delivery()) ++deliveries;
    check_live(e);
  }
  // The lane: a power-of-two ring of deliveries (never cancelled, so always
  // live) strictly ascending by (t, seq), so its front is its minimum and
  // the two-way merge in pop_next stays exact.
  DAS_AUDIT(lane_.size() == 0 || (lane_.size() & (lane_.size() - 1)) == 0,
            "lane capacity is not a power of two");
  DAS_AUDIT(lane_size_ <= lane_.size(), "lane holds more entries than slots");
  const QueueEntry* prev = nullptr;
  for (std::size_t i = 0; i < lane_size_; ++i) {
    const QueueEntry& e = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    DAS_AUDIT(e.seq != 0 && e.seq < next_seq_, "event sequence out of range");
    DAS_AUDIT(e.delivery(), "timer entry in the delivery lane");
    DAS_AUDIT(prev == nullptr || prev->before(e),
              "delivery lane out of (t, seq) order");
    check_live(e);
    ++deliveries;
    prev = &e;
  }
  DAS_AUDIT(live_ == heap_live + lane_size_,
            "live-event count out of sync with the heap and lane");
  // Slab accounting: occupied slots are exactly the live timers, so they
  // and the queued deliveries add up to the live count, and the free list
  // threads through every other slot exactly once.
  std::size_t occupied = 0;
  for (const Slot& s : slots_) {
    if (s.seq != 0) ++occupied;
  }
  DAS_AUDIT(occupied + deliveries == live_,
            "slab occupancy plus deliveries out of sync with live events");
  std::size_t free_count = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot; s = slots_[s].next_free) {
    DAS_AUDIT(s < slots_.size(), "free list points out of the slab");
    DAS_AUDIT(slots_[s].seq == 0, "occupied slot on the free list");
    ++free_count;
    DAS_AUDIT(free_count <= slots_.size(), "free list cycle");
  }
  DAS_AUDIT(occupied + free_count == slots_.size(),
            "slab slots neither occupied nor free");
  // Compaction runs after every cancel and heap pop, so dead heap nodes may
  // exceed live ones only while the heap sits under the compaction floor.
  if (compaction_enabled_) {
    const std::size_t dead = queue_.size() - heap_live;
    DAS_AUDIT(queue_.size() < kCompactionFloor || dead <= heap_live,
              "dead heap nodes outnumber live ones despite compaction");
  }
}

void Simulator::audit_now() const {
  ++audits_run_;
  check_invariants();
  for (const Auditable* auditable : auditables_) {
    auditable->check_invariants();
  }
}

void Simulator::maybe_audit() const {
  if (audit_cadence_ != 0 && dispatched_ % audit_cadence_ == 0) audit_now();
}

void Simulator::run() {
  QueueEntry e{};
  EventFn fn;
  while (pop_next(kTimeInfinity, e, fn)) dispatch(e, fn);
}

void Simulator::run_until(SimTime t) {
  DAS_CHECK(t >= now_);
  QueueEntry e{};
  EventFn fn;
  while (pop_next(t, e, fn)) dispatch(e, fn);
  now_ = t;
}

PeriodicProcess::PeriodicProcess(Simulator& sim, Duration period, EventFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  DAS_CHECK(period_ > 0);
  DAS_CHECK(fn_ != nullptr);
}

PeriodicProcess::~PeriodicProcess() { stop(); }

void PeriodicProcess::start() {
  if (running_) return;
  running_ = true;
  pending_ = sim_.schedule_after(period_, [this] { fire(); });
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventHandle{};
}

void PeriodicProcess::fire() {
  pending_ = EventHandle{};
  fn_();
  // The callback may have called stop() + start(), in which case start()
  // already scheduled the next occurrence; rescheduling here as well would
  // fork a second, orphaned event chain firing at twice the period.
  if (running_ && !pending_.valid())
    pending_ = sim_.schedule_after(period_, [this] { fire(); });
}

}  // namespace das::sim
