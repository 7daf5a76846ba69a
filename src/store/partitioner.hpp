// Key-to-server placement.
//
// The cluster maps every key to an owning server (and optionally a replica
// set). Two strategies: a consistent-hash ring with virtual nodes (the
// production-realistic default — bounded imbalance, minimal disruption on
// membership change) and a modulo partitioner (exact balance, used by tests
// and by experiments that want to isolate scheduling effects from placement
// skew).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace das::store {

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Owning server for `key`.
  virtual ServerId server_for(KeyId key) const = 0;
  /// First `count` distinct servers in placement preference order (primary
  /// first). count is clamped to the cluster size.
  virtual std::vector<ServerId> replicas_for(KeyId key, std::size_t count) const = 0;
  virtual std::size_t server_count() const = 0;
};

using PartitionerPtr = std::shared_ptr<const Partitioner>;

/// key % N placement. Perfectly balanced for uniform keys; no membership
/// flexibility.
PartitionerPtr make_modulo_partitioner(std::size_t servers);

/// Consistent-hash ring with `vnodes` virtual nodes per server.
class ConsistentHashRing final : public Partitioner {
 public:
  ConsistentHashRing(std::size_t servers, std::size_t vnodes_per_server,
                     std::uint64_t seed = 0x5EED);

  ServerId server_for(KeyId key) const override;
  std::vector<ServerId> replicas_for(KeyId key, std::size_t count) const override;
  std::size_t server_count() const override { return servers_; }

  /// Fraction of the ring owned by each server (sums to 1); for balance tests.
  std::vector<double> ownership() const;

  /// Builds a new ring with one more/fewer server, for disruption tests.
  ConsistentHashRing with_servers(std::size_t servers) const;

 private:
  struct Point {
    std::uint64_t hash;
    ServerId server;
    bool operator<(const Point& o) const { return hash < o.hash; }
  };

  std::size_t lower_point(std::uint64_t h) const;

  std::size_t servers_;
  std::size_t vnodes_;
  std::uint64_t seed_;
  std::vector<Point> ring_;  // sorted by hash
};

PartitionerPtr make_consistent_hash_ring(std::size_t servers,
                                         std::size_t vnodes_per_server,
                                         std::uint64_t seed = 0x5EED);

}  // namespace das::store
