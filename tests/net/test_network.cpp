#include "net/network.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "closure_sink.hpp"

namespace das::net {

using sim::ClosureSink;
namespace {

Network make_net(sim::Simulator& sim, LatencyPtr latency) {
  Network::Config cfg;
  cfg.latency = std::move(latency);
  cfg.num_nodes = 16;  // every node id the tests below address
  return Network{sim, cfg, Rng{1}};
}

TEST(LatencyModels, ConstantIsExact) {
  auto m = make_constant_latency(7.0);
  Rng rng{1};
  EXPECT_DOUBLE_EQ(m->sample(rng), 7.0);
}

TEST(LatencyModels, UniformBoundsAndMean) {
  auto m = make_uniform_latency(2.0, 10.0);
  Rng rng{2};
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const Duration d = m->sample(rng);
    ASSERT_GE(d, 2.0);
    ASSERT_LT(d, 10.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(LatencyModels, LognormalEmpiricalMean) {
  auto m = make_lognormal_latency(20.0, 0.5);
  Rng rng{3};
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += m->sample(rng);
  EXPECT_NEAR(sum / n, 20.0, 0.3);
}

TEST(Network, DeliversAfterConstantLatency) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(5.0));
  ClosureSink sink{sim};
  SimTime delivered = -1;
  net.send(0, 1, 100, sink([&] { delivered = sim.now(); }));
  sim.run();
  EXPECT_DOUBLE_EQ(delivered, 5.0);
}

TEST(Network, FifoPreservesPerLinkOrderUnderJitter) {
  sim::Simulator sim;
  Network net = make_net(sim, make_uniform_latency(1.0, 100.0));
  ClosureSink sink{sim};
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    net.send(0, 1, 10, sink([&order, i] { order.push_back(i); }));
  }
  sim.run();
  for (int i = 0; i < 200; ++i) ASSERT_EQ(order[i], i);
}

TEST(Network, DifferentLinksCanReorder) {
  sim::Simulator sim;
  Network net = make_net(sim, make_uniform_latency(1.0, 100.0));
  ClosureSink sink{sim};
  std::vector<int> order;
  bool reordered = false;
  int expected = 0;
  for (int i = 0; i < 200; ++i) {
    const NodeId src = i % 4;
    net.send(src, 9, 10, sink([&, i] {
      if (i != expected) reordered = true;
      ++expected;
    }));
  }
  sim.run();
  EXPECT_TRUE(reordered);  // cross-link ordering is NOT guaranteed
}

TEST(Network, StatsCountMessagesAndBytes) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  ClosureSink sink{sim};
  net.send(0, 1, 100, sink([] {}));
  net.send(1, 0, 250, sink([] {}));
  sim.run();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 350u);
}

// A delivery needs somewhere to go: a simulator without a message sink
// refuses to schedule one.
TEST(Network, NullDeliveryThrows) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  EXPECT_THROW(net.send(0, 1, 10, 0), std::logic_error);
}

TEST(Network, ZeroNodesRejected) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = make_constant_latency(1.0);
  EXPECT_THROW((Network{sim, cfg, Rng{1}}), std::logic_error);
}

// The id check comes before any table access: with a partition active the
// send path reads the partition table, which an unchecked id would overrun.
TEST(Network, NodeBeyondTableIsRejected) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = make_constant_latency(1.0);
  cfg.num_nodes = 4;
  Network net{sim, cfg, Rng{1}};
  ClosureSink sink{sim};
  net.set_partitioned(0, 1, true);
  EXPECT_THROW(net.send(4, 0, 10, sink([] {})), std::logic_error);
  EXPECT_THROW(net.send(0, 4, 10, sink([] {})), std::logic_error);
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(Network, LossDropsConfiguredFraction) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = make_constant_latency(1.0);
  cfg.loss_probability = 0.25;
  cfg.num_nodes = 2;
  Network net{sim, cfg, Rng{7}};
  ClosureSink sink{sim};
  int delivered = 0;
  const int n = 40000;
  int refused = 0;
  for (int i = 0; i < n; ++i) {
    if (!net.send(0, 1, 8, sink([&] { ++delivered; }))) ++refused;
  }
  sim.run();
  EXPECT_EQ(net.stats().messages_sent, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(net.stats().messages_dropped) / n, 0.25, 0.01);
  EXPECT_EQ(delivered + static_cast<int>(net.stats().messages_dropped), n);
  // send() reports every drop, so the sender can reclaim the message.
  EXPECT_EQ(refused, static_cast<int>(net.stats().messages_dropped));
  EXPECT_EQ(sink.parked(), net.stats().messages_dropped);
}

TEST(Network, ZeroLossDeliversEverything) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  ClosureSink sink{sim};
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) net.send(0, 1, 8, sink([&] { ++delivered; }));
  sim.run();
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST(Network, InvalidLossProbabilityRejected) {
  sim::Simulator sim;
  Network::Config cfg;
  cfg.latency = make_constant_latency(1.0);
  cfg.loss_probability = 1.0;
  cfg.num_nodes = 2;
  EXPECT_THROW((Network{sim, cfg, Rng{1}}), std::logic_error);
}

// The network and the event queue carry only the ticket: the message parked
// behind it is never copied on its way, whatever it holds (an OpContext on
// the cluster path). Counted end to end: call site -> sink -> dispatch.
TEST(Network, DeliveryCallbackIsMovedNotCopied) {
  struct Probe {
    int* copies;
    int* moves;
    int* invoked;
    Probe(int* c, int* m, int* i) : copies(c), moves(m), invoked(i) {}
    Probe(const Probe& o)
        : copies(o.copies), moves(o.moves), invoked(o.invoked) {
      ++*copies;
    }
    Probe(Probe&& o) noexcept
        : copies(o.copies), moves(o.moves), invoked(o.invoked) {
      ++*moves;
    }
    void operator()() const { ++*invoked; }
  };
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(1.0));
  ClosureSink sink{sim};
  int copies = 0, moves = 0, invoked = 0;
  net.send(0, 1, 8, sink(Probe{&copies, &moves, &invoked}));
  sim.run();
  EXPECT_EQ(invoked, 1);
  EXPECT_EQ(copies, 0);
  // Bounded hand-offs: into the sink's parked entry and out at dispatch. A
  // regression to by-value plumbing shows up here.
  EXPECT_LE(moves, 4);
}

TEST(Network, ZeroLatencyDeliversImmediatelyInOrder) {
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(0.0));
  ClosureSink sink{sim};
  std::vector<int> order;
  net.send(0, 1, 1, sink([&] { order.push_back(1); }));
  net.send(0, 1, 1, sink([&] { order.push_back(2); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Network, ConstantLatencyDeliversEverySendAtNowPlusLatency) {
  // No per-link clamp exists under a constant delay; a random stream over
  // random links at an advancing clock must still land at exactly now + L.
  constexpr Duration kLatency = 3.7;
  sim::Simulator sim;
  Network net = make_net(sim, make_constant_latency(kLatency));
  ClosureSink sink{sim};
  Rng rng{21};
  int delivered = 0;
  int wrong = 0;
  const std::function<void(int)> send_burst = [&](int left) {
    const int burst = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < burst; ++i) {
      const auto from = static_cast<NodeId>(rng.next_below(16));
      const auto to = static_cast<NodeId>(rng.next_below(16));
      const SimTime due = sim.now() + kLatency;
      net.send(from, to, 1, sink([&, due] {
        ++delivered;
        if (sim.now() != due) ++wrong;
      }));
    }
    if (left > 0) {
      sim.schedule_after(rng.uniform(0.0, 2.0), [&, left] { send_burst(left - 1); });
    }
  };
  send_burst(500);
  sim.run();
  EXPECT_GT(delivered, 500);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(net.stats().messages_sent, static_cast<std::uint64_t>(delivered));
}

}  // namespace
}  // namespace das::net
