#include "net/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace das::net {

namespace {

class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(Duration d) : d_(d) { DAS_CHECK(d >= 0); }
  Duration sample(Rng&) const override { return d_; }
  bool can_reorder() const override { return false; }

 private:
  Duration d_;
};

class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(Duration lo, Duration hi) : lo_(lo), hi_(hi) {
    DAS_CHECK(lo >= 0);
    DAS_CHECK(lo <= hi);
  }
  Duration sample(Rng& rng) const override { return rng.uniform(lo_, hi_); }

 private:
  Duration lo_, hi_;
};

class LognormalLatency final : public LatencyModel {
 public:
  LognormalLatency(Duration mean, double sigma) : sigma_(sigma) {
    DAS_CHECK(mean > 0);
    DAS_CHECK(sigma >= 0);
    mu_ = std::log(mean) - 0.5 * sigma * sigma;
  }
  Duration sample(Rng& rng) const override { return rng.lognormal(mu_, sigma_); }

 private:
  double sigma_, mu_;
};

}  // namespace

LatencyPtr make_constant_latency(Duration d) {
  return std::make_shared<ConstantLatency>(d);
}
LatencyPtr make_uniform_latency(Duration lo, Duration hi) {
  return std::make_shared<UniformLatency>(lo, hi);
}
LatencyPtr make_lognormal_latency(Duration mean, double sigma) {
  return std::make_shared<LognormalLatency>(mean, sigma);
}

Network::Network(sim::Simulator& sim, Config config, Rng rng)
    : sim_(sim), config_(std::move(config)), rng_(rng) {
  DAS_CHECK(config_.latency != nullptr);
  DAS_CHECK(config_.loss_probability >= 0 && config_.loss_probability < 1);
  DAS_CHECK_MSG(config_.num_nodes > 0, "Config::num_nodes must be > 0");
  if (config_.latency->can_reorder()) {
    link_last_.assign(
        static_cast<std::size_t>(config_.num_nodes) * config_.num_nodes, 0.0);
  }
}

void Network::set_partitioned(NodeId a, NodeId b, bool cut) {
  DAS_CHECK_MSG(a < config_.num_nodes && b < config_.num_nodes,
                "node id beyond Config::num_nodes");
  if (partition_.empty()) {
    partition_.assign(
        static_cast<std::size_t>(config_.num_nodes) * config_.num_nodes, 0);
  }
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    char& slot = partition_[link_index(from, to)];
    if (slot == (cut ? 1 : 0)) continue;
    slot = cut ? 1 : 0;
    if (cut) {
      ++partitions_active_;
    } else {
      DAS_CHECK(partitions_active_ > 0);
      --partitions_active_;
    }
  }
}

void Network::set_burst_loss(double p) {
  DAS_CHECK(p >= 0 && p < 1);
  burst_loss_ = p;
}

bool Network::send(NodeId from, NodeId to, Bytes size, sim::Ticket ticket) {
  DAS_CHECK_MSG(from < config_.num_nodes && to < config_.num_nodes,
                "node id beyond Config::num_nodes");
  ++stats_.messages_sent;
  stats_.bytes_sent += size;
  const std::size_t link = link_index(from, to);
  // Partition check first: it consumes no randomness, so cutting a link
  // never shifts the loss or latency draws of messages on other links.
  if (partitions_active_ > 0 && partition_[link] != 0) {
    ++stats_.messages_dropped;
    ++stats_.messages_dropped_partition;
    return false;
  }
  if (config_.loss_probability > 0 && rng_.chance(config_.loss_probability)) {
    ++stats_.messages_dropped;
    return false;
  }
  if (burst_loss_ > 0 && rng_.chance(burst_loss_)) {
    ++stats_.messages_dropped;
    return false;
  }
  const SimTime due = sim_.now() + config_.latency->sample(rng_);
  if (link_last_.empty()) {
    sim_.schedule_delivery(due, ticket);
    return true;
  }
  SimTime& last = link_last_[link];
  last = std::max(due, last);
  sim_.schedule_delivery(last, ticket);
  return true;
}

}  // namespace das::net
