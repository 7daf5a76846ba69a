// Simulated message-passing network.
//
// Everything runs in one process, so the network carries no payload: the
// sender parks its message with the simulator's MessageSink (the cluster
// keeps one pool per message kind) and hands the network a ticket naming
// it. The network decides the message's fate — partition, loss, latency —
// and schedules the ticket's delivery; the size only feeds the byte
// counters. Per-link FIFO ordering is unconditional — jitter never reorders
// messages on the same (src, dst) pair, matching a TCP connection — because
// schedulers downstream rely on feedback arriving in causal order. Only a
// latency model that can reorder needs help keeping it: for one, the
// network holds a dense (nodes)² table of each link's last delivery time and
// clamps every delivery to it. A constant delay cannot reorder (the clock
// never runs back and rounding is monotone, so now + L never falls below the
// previous message's due time), and then no table exists.
//
// Deliveries go through the simulator's delivery lane
// (Simulator::schedule_delivery), not its timer heap: a message is never
// recalled once sent, and with constant latency each one is due no earlier
// than the one sent before it, so the lane takes every delivery in O(1).
// Under jitter a delivery due before the lane's tail falls back to the heap;
// the dispatch order is the same either way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace das::net {

/// Network node address. Clients and servers share one address space; the
/// cluster assigns servers [0, N) and clients [N, N+C).
using NodeId = std::uint32_t;

/// One-way propagation delay family.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Duration sample(Rng& rng) const = 0;
  /// Whether a later send on a link can draw an earlier due time than the
  /// one before it. False only when no draw can: the network then keeps no
  /// per-link clamp.
  virtual bool can_reorder() const { return true; }
};

using LatencyPtr = std::shared_ptr<const LatencyModel>;

/// Constant delay.
LatencyPtr make_constant_latency(Duration d);
/// Uniform on [lo, hi].
LatencyPtr make_uniform_latency(Duration lo, Duration hi);
/// Lognormal with the given mean and underlying-normal sigma — the classic
/// "mostly tight, occasionally spiky" datacenter RTT shape.
LatencyPtr make_lognormal_latency(Duration mean, double sigma);

/// Per-network traffic counters.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  /// Subset of messages_dropped destroyed by a link partition (fault layer).
  std::uint64_t messages_dropped_partition = 0;
  Bytes bytes_sent = 0;
};

class Network {
 public:
  struct Config {
    LatencyPtr latency;
    /// Independent per-message drop probability in [0, 1); dropped messages
    /// are counted but never delivered (fault injection — end-to-end
    /// recovery is the clients' responsibility).
    double loss_probability = 0.0;
    /// Number of node addresses in play (the cluster sets servers+clients);
    /// required, > 0. Node ids are checked against it on every send.
    std::uint32_t num_nodes = 0;
  };

  Network(sim::Simulator& sim, Config config, Rng rng);

  /// Sends `size` bytes from `from` to `to`: the simulator hands `ticket` to
  /// its message sink when the message arrives. Returns false when the
  /// message was dropped (partition or loss) and will never be delivered,
  /// so the sender can reclaim whatever the ticket names.
  bool send(NodeId from, NodeId to, Bytes size, sim::Ticket ticket);

  /// Fault layer: cuts (or heals) the undirected link between `a` and `b`.
  /// While cut, every message on the link is destroyed — before any RNG
  /// draw, so partitions never perturb the loss/latency streams of the
  /// surviving traffic. Idempotent per direction.
  void set_partitioned(NodeId a, NodeId b, bool cut);

  /// Fault layer: an additional cluster-wide drop probability layered on top
  /// of Config::loss_probability for the duration of a loss burst (0 = no
  /// burst). Burst drops consume one RNG draw per message, exactly like base
  /// loss.
  void set_burst_loss(double p);

  const NetworkStats& stats() const { return stats_; }

 private:
  std::size_t link_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * config_.num_nodes + to;
  }

  sim::Simulator& sim_;
  Config config_;
  Rng rng_;
  NetworkStats stats_;
  /// Last scheduled delivery time per directed link, for FIFO clamping,
  /// indexed by link_index (the initial 0.0 is the clamp's identity).
  /// Allocated only for a latency model that can reorder; empty otherwise.
  std::vector<SimTime> link_last_;
  /// Directed partition state, same indexing, allocated on the first cut.
  /// `partitions_active_` counts cut directed links so the fault-free send
  /// path pays one integer compare and never touches the table.
  std::vector<char> partition_;
  std::uint32_t partitions_active_ = 0;
  double burst_loss_ = 0.0;
};

}  // namespace das::net
