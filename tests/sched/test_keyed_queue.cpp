#include "sched/keyed_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace das::sched {
namespace {

OpContext op(OperationId id) {
  OpContext o;
  o.op_id = id;
  return o;
}

TEST(KeyedQueue, PopsInKeyOrder) {
  KeyedQueue<double> q;
  q.insert(3.0, op(3));
  q.insert(1.0, op(1));
  q.insert(2.0, op(2));
  EXPECT_EQ(q.pop_min().op_id, 1u);
  EXPECT_EQ(q.pop_min().op_id, 2u);
  EXPECT_EQ(q.pop_min().op_id, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(KeyedQueue, EqualKeysPopInInsertionOrder) {
  KeyedQueue<int> q;
  for (OperationId i = 0; i < 20; ++i) q.insert(7, op(i));
  for (OperationId i = 0; i < 20; ++i) EXPECT_EQ(q.pop_min().op_id, i);
}

TEST(KeyedQueue, MinKeyAndPeek) {
  KeyedQueue<double> q;
  q.insert(5.5, op(42));
  EXPECT_DOUBLE_EQ(q.min_key(), 5.5);
  EXPECT_EQ(q.peek_min().op_id, 42u);
  EXPECT_EQ(q.size(), 1u);  // peek does not remove
}

TEST(KeyedQueue, PopOnEmptyThrows) {
  KeyedQueue<int> q;
  EXPECT_THROW(q.pop_min(), std::logic_error);
  EXPECT_THROW(q.min_key(), std::logic_error);
}

TEST(KeyedQueue, RemoveWithKeyByHandle) {
  KeyedQueue<double> q;
  const auto h1 = q.insert(1.0, op(1));
  const auto h3 = q.insert(3.0, op(3));
  q.insert(2.0, op(2));
  EXPECT_TRUE(q.contains(h1));
  EXPECT_EQ(q.remove(h1).op_id, 1u);  // the front
  EXPECT_FALSE(q.contains(h1));
  EXPECT_EQ(q.remove(h3).op_id, 3u);  // not the front
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_min().op_id, 2u);
}

TEST(KeyedQueue, RekeyReordersElement) {
  KeyedQueue<double> q;
  const auto h1 = q.insert(1.0, op(1));
  const auto h2 = q.insert(2.0, op(2));
  q.update(h1, 10.0);
  EXPECT_EQ(q.key(h1), 10.0);
  EXPECT_EQ(q.min_handle(), h2);
  q.update(h1, 2.0);  // ties with op 2, which was inserted later
  EXPECT_EQ(q.pop_min().op_id, 1u);
  EXPECT_EQ(q.pop_min().op_id, 2u);
}

TEST(KeyedQueue, MoveKeepsInsertionOrderAcrossLanes) {
  KeyedQueue<double, OpContext, 2> q;
  const auto h1 = q.insert(5.0, op(1), 1);
  q.insert(5.0, op(2), 0);
  EXPECT_EQ(q.lane_size(0), 1u);
  EXPECT_EQ(q.lane_size(1), 1u);
  q.move(h1, 0, 5.0);
  EXPECT_EQ(q.lane(h1), 0u);
  EXPECT_EQ(q.lane_size(1), 0u);
  // Op 1 was inserted first, so it still wins the tie after the move.
  EXPECT_EQ(q.pop_min(0).op_id, 1u);
  EXPECT_EQ(q.pop_min(0).op_id, 2u);
}

TEST(KeyedQueue, AtAccessesByHandle) {
  KeyedQueue<int> q;
  const auto h = q.insert(4, op(77));
  EXPECT_EQ(q.at(h).op_id, 77u);
}

TEST(KeyedQueue, StaleHandleRejectedAfterServe) {
  KeyedQueue<double> q;
  const auto h = q.insert(1.0, op(1));
  q.insert(2.0, op(2));
  q.pop_min();
  EXPECT_FALSE(q.contains(h));
  EXPECT_THROW(q.remove(h), std::logic_error);
  EXPECT_THROW(q.update(h, 0.5), std::logic_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.contains(KeyedQueue<double>::Handle{}));
}

TEST(KeyedQueue, StaleHandleRejectedAfterSlotReuse) {
  KeyedQueue<double> q;
  const auto old = q.insert(1.0, op(1));
  q.remove(old);
  const auto fresh = q.insert(9.0, op(2));
  ASSERT_EQ(fresh.slot, old.slot);  // the free list hands the slot back
  EXPECT_FALSE(q.contains(old));
  EXPECT_TRUE(q.contains(fresh));
  EXPECT_THROW(q.remove(old), std::logic_error);
  EXPECT_THROW(q.update(old, 0.5), std::logic_error);
  EXPECT_EQ(q.key(fresh), 9.0);
  EXPECT_EQ(q.pop_min().op_id, 2u);
}

// Differential test against a reference built from one std::set<(key, seq)>
// per lane — the node-based order index the queue replaced. Keys tie
// heavily and include both zeros and +inf; any mismatch in what a pop
// serves fails the test.
TEST(KeyedQueue, MixedOperationsStress) {
  using Queue = KeyedQueue<double, OpContext, 2>;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double keys[] = {-0.0, +0.0, 1.0, 1.0, 2.5, kInf};
  Queue q;
  std::set<std::pair<double, OperationId>> ref[2];
  struct Live {
    Queue::Handle handle;
    std::size_t lane;
    double key;
  };
  std::map<OperationId, Live> live;
  std::vector<OperationId> ids;  // live op ids, for uniform random picks
  Rng rng{4242};
  OperationId next_id = 0;
  std::size_t pops = 0;

  const auto random_key = [&] { return keys[rng.next_below(std::size(keys))]; };
  const auto forget = [&](OperationId id) {
    std::erase(ids, id);
    live.erase(id);
  };
  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.uniform(0, 1);
    if (ids.empty() || dice < 0.35) {
      const double key = random_key();
      const std::size_t lane = rng.next_below(2);
      const OperationId id = next_id++;
      live[id] = Live{q.insert(key, op(id), lane), lane, key};
      ref[lane].emplace(key, id);
      ids.push_back(id);
    } else if (dice < 0.6) {
      const std::size_t lane = ref[0].empty() ? 1 : ref[1].empty() ? 0 : rng.next_below(2);
      if (ref[lane].empty()) continue;
      const OperationId expected = ref[lane].begin()->second;
      ref[lane].erase(ref[lane].begin());
      ASSERT_EQ(q.min_handle(lane), live.at(expected).handle);
      ASSERT_EQ(q.pop_min(lane).op_id, expected) << "step " << step;
      forget(expected);
      ++pops;
    } else {
      const OperationId id = ids[rng.next_below(ids.size())];
      Live& entry = live.at(id);
      ref[entry.lane].erase({entry.key, id});
      if (dice < 0.75) {
        entry.key = random_key();
        q.update(entry.handle, entry.key);
      } else if (dice < 0.9) {
        entry.lane = rng.next_below(2);
        entry.key = random_key();
        q.move(entry.handle, entry.lane, entry.key);
      } else {
        ASSERT_EQ(q.remove(entry.handle).op_id, id);
        forget(id);
        continue;
      }
      ref[entry.lane].emplace(entry.key, id);
      ASSERT_EQ(q.lane(entry.handle), entry.lane);
      ASSERT_EQ(std::signbit(q.key(entry.handle)), std::signbit(entry.key));
    }
    ASSERT_EQ(q.lane_size(0), ref[0].size());
    ASSERT_EQ(q.lane_size(1), ref[1].size());
    if (step % 512 == 0) {
      ASSERT_NO_THROW(q.check_invariants());
    }
  }
  EXPECT_GT(pops, 4000u);
  // Drain both lanes: the remaining order must match too.
  for (std::size_t lane = 0; lane < 2; ++lane) {
    for (const auto& [key, id] : ref[lane]) {
      static_cast<void>(key);
      ASSERT_EQ(q.pop_min(lane).op_id, id);
    }
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace das::sched
