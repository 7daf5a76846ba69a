// Indexed priority queue with stable handles.
//
// Most policies are "serve the minimum of some key, ties by arrival"; the
// feedback-driven one (DAS re-ranking and deferral, req-srpt included) also
// re-keys or moves a queued element by handle. One container provides both:
// a slab of slots recycled through a free list, plus one array min-heap per
// *lane* ordered by (key, seq). Each slot records its lane and heap position,
// so update, move and remove are O(log n) sifts that never allocate and need
// no old key. A handle names {slot, seq}; the slot's current seq is the
// liveness test (the sim::Simulator idiom), so a handle goes stale the moment
// its element leaves, even after the slot is reused. Keys are totally ordered
// via operator<; equal keys dequeue in insertion order, and an element keeps
// its insertion seq across re-keys and lane moves.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/invariant.hpp"
#include "sched/op_context.hpp"

namespace das::sched {

/// Names one element of a KeyedQueue. Declared outside the template so a
/// payload can hold handles to other elements of its own queue.
struct QueueHandle {
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;  // 0 = no element (sequence numbers start at 1)
  bool valid() const { return seq != 0; }
  bool operator==(const QueueHandle&) const = default;
};

template <typename Key, typename Payload = OpContext, std::size_t kLanes = 1>
class KeyedQueue : public Auditable {
 public:
  using Handle = QueueHandle;

  Handle insert(Key key, Payload value, std::size_t lane = 0) {
    DAS_CHECK(lane < kLanes);
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = slots_[slot].pos;
    } else {
      DAS_CHECK_MSG(slots_.size() < kNoSlot, "KeyedQueue slab exhausted");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.value = std::move(value);
    s.seq = seq;
    s.lane = static_cast<std::uint32_t>(lane);
    heaps_[lane].push_back(Node{std::move(key), seq, slot});
    sift(lane, heaps_[lane].size() - 1);
    return {slot, seq};
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& heap : heaps_) n += heap.size();
    return n;
  }
  std::size_t lane_size(std::size_t lane) const { return heaps_[lane].size(); }

  /// Key of the lane's front element. Precondition: lane_size(lane) > 0.
  const Key& min_key(std::size_t lane = 0) const { return front(lane).key; }
  /// Lane's front handle. Precondition: lane_size(lane) > 0.
  Handle min_handle(std::size_t lane = 0) const {
    const Node& node = front(lane);
    return {node.slot, node.seq};
  }
  /// Read-only access to the lane's front element.
  const Payload& peek_min(std::size_t lane = 0) const {
    return slots_[front(lane).slot].value;
  }
  /// Removes and returns the lane's front element.
  Payload pop_min(std::size_t lane = 0) { return remove(min_handle(lane)); }

  bool contains(Handle h) const {
    return h.seq != 0 && h.slot < slots_.size() && slots_[h.slot].seq == h.seq;
  }

  /// Removes an element by handle. Precondition: contains(h).
  Payload remove(Handle h) {
    Slot& s = slots_[live(h)];
    detach(s);
    s.seq = 0;
    s.pos = free_head_;
    free_head_ = h.slot;
    return std::move(s.value);
  }

  /// Re-keys an element within its lane. Precondition: contains(h).
  void update(Handle h, Key key) {
    const Slot& s = slots_[live(h)];
    heaps_[s.lane][s.pos].key = std::move(key);
    sift(s.lane, s.pos);
  }

  /// Moves an element to `lane` under `key`, keeping its seq (so its
  /// insertion-order tie-break). Precondition: contains(h).
  void move(Handle h, std::size_t lane, Key key) {
    DAS_CHECK(lane < kLanes);
    Slot& s = slots_[live(h)];
    if (s.lane == lane) {
      update(h, std::move(key));
      return;
    }
    detach(s);
    s.lane = static_cast<std::uint32_t>(lane);
    heaps_[lane].push_back(Node{std::move(key), h.seq, h.slot});
    sift(lane, heaps_[lane].size() - 1);
  }

  /// Access by handle. Precondition: contains(h). Mutating the payload never
  /// reorders it; only update/move change the order.
  const Payload& at(Handle h) const { return slots_[live(h)].value; }
  Payload& at(Handle h) { return slots_[live(h)].value; }
  const Key& key(Handle h) const {
    const Slot& s = slots_[live(h)];
    return heaps_[s.lane][s.pos].key;
  }
  std::size_t lane(Handle h) const { return slots_[live(h)].lane; }

  /// Calls f(lane, key, payload) for every element, in heap order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (const Node& node : heaps_[lane]) f(lane, node.key, slots_[node.slot].value);
    }
  }

  /// Structural audit: every heap node names a live slot that points back
  /// at the node's lane and position, each heap is ordered by (key, seq),
  /// every live slot sits in some lane, no seq is at or past the next to be
  /// issued, and every queued op has nonnegative demand.
  void check_invariants() const override {
    std::size_t nodes = 0;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const auto& heap = heaps_[lane];
      nodes += heap.size();
      for (std::size_t i = 0; i < heap.size(); ++i) {
        const Node& node = heap[i];
        DAS_AUDIT(node.slot < slots_.size(), "KeyedQueue node past the slab");
        const Slot& s = slots_[node.slot];
        DAS_AUDIT(s.seq == node.seq, "KeyedQueue node names a free or reused slot");
        DAS_AUDIT(s.lane == lane && s.pos == i,
                  "KeyedQueue heap-position back-pointer mismatch");
        DAS_AUDIT(node.seq < next_seq_, "KeyedQueue seq from the future");
        DAS_AUDIT(i == 0 || !before(node, heap[(i - 1) / 2]),
                  "KeyedQueue heap-order violation");
        DAS_AUDIT(op_of(s.value).demand_us >= 0, "queued op with negative demand");
      }
    }
    std::size_t live_slots = 0;
    for (const Slot& s : slots_) live_slots += s.seq != 0 ? 1 : 0;
    DAS_AUDIT(live_slots == nodes, "KeyedQueue live slot in no lane");
  }

 private:
  friend struct TestCorruptor;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// The scheduled op inside a payload: the payload itself, or its `op`.
  static const OpContext& op_of(const OpContext& op) { return op; }
  static const OpContext& op_of(const auto& payload) { return payload.op; }

  struct Node {
    Key key;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    Payload value{};
    std::uint64_t seq = 0;  // 0 = free
    std::uint32_t pos = 0;  // heap index in `lane` if live, else next free slot
    std::uint32_t lane = 0;
  };

  static bool before(const Node& a, const Node& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.seq < b.seq;
  }

  const Node& front(std::size_t lane) const {
    DAS_CHECK(!heaps_[lane].empty());
    return heaps_[lane].front();
  }

  /// The slot of a live handle; throws on a stale one.
  std::uint32_t live(Handle h) const {
    DAS_CHECK_MSG(contains(h), "stale KeyedQueue handle");
    return h.slot;
  }

  void put(std::size_t lane, std::size_t i, Node node) {
    slots_[node.slot].pos = static_cast<std::uint32_t>(i);
    heaps_[lane][i] = std::move(node);
  }

  /// Re-establishes heap order around node i after it was added, re-keyed
  /// or replaced: it rises past larger parents, else sinks past smaller
  /// children (a node that rose has no smaller child).
  void sift(std::size_t lane, std::size_t i) {
    auto& heap = heaps_[lane];
    Node node = std::move(heap[i]);
    while (i > 0 && before(node, heap[(i - 1) / 2])) {
      put(lane, i, std::move(heap[(i - 1) / 2]));
      i = (i - 1) / 2;
    }
    for (std::size_t child = 2 * i + 1; child < heap.size(); child = 2 * i + 1) {
      if (child + 1 < heap.size() && before(heap[child + 1], heap[child])) ++child;
      if (!before(heap[child], node)) break;
      put(lane, i, std::move(heap[child]));
      i = child;
    }
    put(lane, i, std::move(node));
  }

  /// Unlinks the slot's node from its lane heap; the slot stays live.
  void detach(const Slot& s) {
    auto& heap = heaps_[s.lane];
    const std::size_t pos = s.pos;
    const std::size_t lane = s.lane;
    Node last = std::move(heap.back());
    heap.pop_back();
    if (pos == heap.size()) return;
    put(lane, pos, std::move(last));
    sift(lane, pos);
  }

  std::vector<Slot> slots_;
  std::array<std::vector<Node>, kLanes> heaps_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
};

}  // namespace das::sched
