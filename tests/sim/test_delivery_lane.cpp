// The delivery lane: network deliveries bypass the event heap through a FIFO
// merged with it by (t, seq). These tests pin that the merge reproduces the
// single-queue dispatch order exactly — against a test-local reference queue
// under seeded random interleavings of every engine operation — and that the
// lane's storage stays bounded by what is in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "closure_sink.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace das::sim {
namespace {

TEST(DeliveryLane, EqualTimesInterleaveWithTimersInScheduleOrder) {
  Simulator sim;
  ClosureSink sink{sim};
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(0); });
  sim.schedule_delivery(5.0, sink([&] { order.push_back(1); }));
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.schedule_delivery(5.0, sink([&] { order.push_back(3); }));
  sim.schedule_at(4.0, [&] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
  EXPECT_EQ(sim.lane_events(), 2u);
  EXPECT_EQ(sim.events_dispatched(), 5u);
}

TEST(DeliveryLane, DeliveryBeforeTheLaneTailFallsBackToTheHeap) {
  Simulator sim;
  ClosureSink sink{sim};
  std::vector<int> order;
  sim.schedule_delivery(10.0, sink([&] { order.push_back(10); }));
  sim.schedule_delivery(5.0, sink([&] { order.push_back(5); }));   // jittered early
  sim.schedule_delivery(10.0, sink([&] { order.push_back(11); }));  // equal to tail
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.queued_nodes(), 3u);
  EXPECT_NO_THROW(sim.check_invariants());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 11}));
  EXPECT_EQ(sim.lane_events(), 2u);
  // The fallback is still a delivery: it holds no timer slot.
  EXPECT_EQ(sim.slab_slots(), 0u);
}

TEST(DeliveryLane, RunUntilLeavesLaterDeliveriesQueued) {
  Simulator sim;
  ClosureSink sink{sim};
  int fired = 0;
  sim.schedule_delivery(3.0, sink([&] { ++fired; }));
  sim.schedule_delivery(7.0, sink([&] { ++fired; }));
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_THROW(sim.schedule_delivery(4.0, sink([] {})), std::logic_error);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// A delivery with nowhere to go is refused at scheduling time.
TEST(DeliveryLane, NullDeliveryThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_delivery(1.0, 0), std::logic_error);
  EXPECT_EQ(sim.pending(), 0u);
}

/// Drives one Simulator + Network through a seeded random interleaving of
/// schedule_at / schedule_after / cancel / Network::send / step / run_until,
/// with callbacks that schedule more work, and checks every dispatch against
/// a reference queue ordered by (t, schedule order). The network's delivery
/// times are predicted by replaying its latency draws on a second Rng with
/// the same seed and the same per-link FIFO clamp.
class Interleaving {
 public:
  static constexpr net::NodeId kNodes = 6;
  static constexpr std::uint64_t kNetSeed = 0x5EED;

  explicit Interleaving(net::LatencyPtr latency, std::uint64_t seed)
      : sink_(sim_), latency_(std::move(latency)), mirror_(kNetSeed), driver_(seed) {
    net::Network::Config cfg;
    cfg.latency = latency_;
    cfg.num_nodes = kNodes;
    net_ = std::make_unique<net::Network>(sim_, cfg, Rng{kNetSeed});
  }

  void run(int actions) {
    for (int i = 0; i < actions; ++i) {
      act();
      ASSERT_NO_THROW(sim_.check_invariants());
      ASSERT_EQ(sim_.pending(), pending_.size());
    }
    sim_.run();
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(mismatches_, 0u) << "first mismatch at dispatch " << first_mismatch_;
    EXPECT_EQ(sim_.events_dispatched(), dispatched_);
    EXPECT_NO_THROW(sim_.check_invariants());
  }

  const Simulator& sim() const { return sim_; }
  std::uint64_t deliveries() const { return deliveries_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (t, schedule order)

  /// A coarse grid of delays makes equal timestamps common.
  Duration delay() { return 0.5 * static_cast<double>(driver_.next_below(8)); }

  void act() {
    switch (driver_.next_below(10)) {
      case 0:
      case 1:
        timer(/*relative=*/false);
        break;
      case 2:
        timer(/*relative=*/true);
        break;
      case 3:
      case 4:
      case 5:
        send();
        break;
      case 6:
        cancel();
        break;
      case 7:
      case 8: {
        const bool had = !pending_.empty();
        EXPECT_EQ(sim_.step(), had);
        break;
      }
      default: {
        const SimTime horizon = sim_.now() + delay();
        sim_.run_until(horizon);
        EXPECT_DOUBLE_EQ(sim_.now(), horizon);
        EXPECT_TRUE(pending_.empty() || pending_.begin()->first > horizon);
        break;
      }
    }
  }

  void timer(bool relative) {
    const Duration d = delay();
    const Key key{sim_.now() + d, next_order_++};
    pending_.insert(key);
    auto fn = [this, key] { fire(key); };
    const EventHandle h = relative ? sim_.schedule_after(d, fn)
                                   : sim_.schedule_at(key.first, fn);
    handles_.emplace_back(h, key);
  }

  void send() {
    const auto from = static_cast<net::NodeId>(driver_.next_below(kNodes));
    const auto to = static_cast<net::NodeId>(driver_.next_below(kNodes));
    SimTime& last = link_last_[{from, to}];
    last = std::max(sim_.now() + latency_->sample(mirror_), last);
    const Key key{last, next_order_++};
    pending_.insert(key);
    net_->send(from, to, 64, sink_([this, key] {
      ++deliveries_;
      fire(key);
    }));
  }

  void cancel() {
    if (handles_.empty()) return;
    const std::size_t i = driver_.next_below(handles_.size());
    sim_.cancel(handles_[i].first);
    pending_.erase(handles_[i].second);  // a no-op when it already fired
    handles_[i] = handles_.back();
    handles_.pop_back();
  }

  void fire(const Key& key) {
    ++dispatched_;
    EXPECT_DOUBLE_EQ(sim_.now(), key.first);
    if (pending_.empty() || *pending_.begin() != key) {
      if (mismatches_++ == 0) first_mismatch_ = dispatched_;
    }
    pending_.erase(key);
    // Callbacks schedule too, as cluster handlers do, within a budget.
    if (spawn_budget_ > 0 && driver_.chance(0.5)) {
      --spawn_budget_;
      if (driver_.chance(0.6)) {
        send();
      } else {
        timer(/*relative=*/true);
      }
    }
  }

  Simulator sim_;
  ClosureSink sink_;
  net::LatencyPtr latency_;
  std::unique_ptr<net::Network> net_;
  Rng mirror_;
  Rng driver_;
  std::map<std::pair<net::NodeId, net::NodeId>, SimTime> link_last_;
  std::set<Key> pending_;
  std::vector<std::pair<EventHandle, Key>> handles_;
  std::uint64_t next_order_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t first_mismatch_ = 0;
  int spawn_budget_ = 20000;
};

TEST(DeliveryLaneDifferential, ConstantLatencyTakesTheLaneForEveryDelivery) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Interleaving run{net::make_constant_latency(2.0), seed};
    run.run(20000);
    EXPECT_GT(run.deliveries(), 0u);
    EXPECT_EQ(run.sim().lane_events(), run.deliveries());
  }
}

TEST(DeliveryLaneDifferential, UniformLatencyMatchesTheReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Interleaving run{net::make_uniform_latency(1.0, 4.0), seed};
    run.run(20000);
    // Jitter sends some deliveries to the heap, but not all of them.
    EXPECT_GT(run.sim().lane_events(), 0u);
    EXPECT_LT(run.sim().lane_events(), run.deliveries());
  }
}

TEST(DeliveryLaneDifferential, LognormalLatencyMatchesTheReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Interleaving run{net::make_lognormal_latency(2.0, 0.8), seed};
    run.run(20000);
    EXPECT_GT(run.sim().lane_events(), 0u);
    EXPECT_LT(run.sim().lane_events(), run.deliveries());
  }
}

/// A message stream that never drains: every delivery sends the next message
/// on a rotating link, so the lane is never empty while the stream runs. A
/// second wave of senders raises the in-flight count midway. The lane's
/// storage must follow the in-flight peak, not the messages streamed.
TEST(DeliveryLane, StorageStaysBoundedOnANeverDrainingStream) {
  Simulator sim;
  net::Network::Config cfg;
  cfg.latency = net::make_constant_latency(3.0);
  cfg.num_nodes = 32;
  net::Network net{sim, cfg, Rng{7}};
  ClosureSink sink{sim};
  std::uint64_t remaining = 300000;
  std::size_t peak = 0;
  std::function<void(net::NodeId)> pump = [&](net::NodeId node) {
    if (remaining == 0) return;
    --remaining;
    const auto next = static_cast<net::NodeId>((node + 1) % cfg.num_nodes);
    net.send(node, next, 64, sink([&pump, next] { pump(next); }));
    peak = std::max(peak, sim.pending());
  };
  const auto wave = [&](int senders) {
    for (int i = 0; i < senders; ++i) pump(static_cast<net::NodeId>(i % 32));
  };
  wave(100);
  while (remaining > 150000) sim.run_until(sim.now() + 100.0);
  EXPECT_NO_THROW(sim.check_invariants());
  wave(300);
  while (remaining > 0) sim.run_until(sim.now() + 100.0);
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 300000u);
  EXPECT_EQ(sim.lane_events(), sim.events_dispatched());
  EXPECT_GE(peak, 400u);
  EXPECT_LE(sim.lane_capacity(), 2 * peak + 16);
  EXPECT_EQ(sim.queued_nodes(), 0u);
}

}  // namespace
}  // namespace das::sim
