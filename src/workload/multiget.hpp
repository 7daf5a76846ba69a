// Multiget request generation.
//
// An end-user request asks for `k` distinct keys; `k` is drawn from a
// configurable fan-out distribution and keys from a Zipf popularity law over
// the keyspace. This mirrors the Rein (EuroSys'17) methodology the paper
// evaluates against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace das::workload {

/// One generated request: the distinct keys to fetch.
struct MultigetSpec {
  std::vector<KeyId> keys;
};

/// A hot-key storm: inside [start, end) each key draw lands on a small
/// pre-sampled hot set with probability `share` (before falling back to the
/// stationary popularity law). The hot set is fixed key ids drawn from
/// `seed` at construction — specific keys go viral, independent of any rank
/// rotation happening underneath.
struct StormWindow {
  SimTime start = 0;
  SimTime end = 0;
  /// Number of distinct keys in the storm hot set (>= 1).
  std::uint64_t keys = 1;
  /// Probability a single key draw comes from the hot set, in [0, 1].
  double share = 0.0;
  /// Seeds the selection of the hot set.
  std::uint64_t seed = 1;
};

/// Time-varying popularity: the rank -> key mapping rotates by
/// `rotate_stride` ranks every `rotate_period_us`, plus optional storm
/// windows. Disabled (all defaults) leaves the generator stationary and
/// bit-identical to the pre-drift implementation.
struct DriftOptions {
  /// Epoch length; 0 disables rotation.
  Duration rotate_period_us = 0;
  /// Ranks the mapping shifts per epoch (effective rank = (rank +
  /// epoch * stride) % universe).
  std::uint64_t rotate_stride = 1;
  std::vector<StormWindow> storms;

  [[nodiscard]] bool enabled() const {
    return rotate_period_us > 0 || !storms.empty();
  }
};

class MultigetGenerator {
 public:
  struct Config {
    /// Total number of keys in the store.
    std::uint64_t key_universe = 0;
    /// Zipf skew of key popularity; 0 = uniform.
    double zipf_theta = 0.0;
    /// Number of keys per request (>= 1); clamped to the universe size.
    IntDistPtr fanout;
    /// Permute popularity ranks to keys so that hot keys scatter across the
    /// keyspace (and hence across servers) instead of clustering at low ids.
    std::uint64_t rank_permutation_seed = 0x9E3779B9;
    /// Offset added to every produced key id; a tenant owning the keyspace
    /// slice [key_base, key_base + key_universe) generates only its own keys.
    std::uint64_t key_base = 0;
    /// Time-varying popularity (rotation + storms); default stationary.
    DriftOptions drift;
  };

  explicit MultigetGenerator(Config config);

  /// Draws one request with distinct keys, at simulation time `now` (the
  /// time only matters when drift is configured).
  MultigetSpec generate(Rng& rng, SimTime now) const;
  MultigetSpec generate(Rng& rng) const { return generate(rng, 0); }

  /// Draws a single key from the popularity law (write workloads).
  KeyId sample_key(Rng& rng, SimTime now) const;
  KeyId sample_key(Rng& rng) const { return sample_key(rng, 0); }

  double mean_fanout() const { return config_.fanout->mean(); }
  std::uint64_t key_universe() const { return config_.key_universe; }
  std::uint64_t key_base() const { return config_.key_base; }
  const DriftOptions& drift() const { return config_.drift; }

  /// Key id occupying popularity rank `rank` (0 = hottest) at epoch 0;
  /// exposed so load calibration can compute exact per-server demand shares.
  /// A true bijection: every key has exactly one rank.
  KeyId key_for_rank(std::uint64_t rank) const;
  /// Same, at simulation time `now` (rotation applied).
  KeyId key_for_rank_at(std::uint64_t rank, SimTime now) const {
    return key_for_rank(effective_rank(rank, now));
  }
  /// P(single drawn key has popularity rank `rank`).
  double rank_pmf(std::uint64_t rank) const { return zipf_.pmf(rank); }

  /// Rotation epoch active at `now` (0 when rotation is disabled).
  std::uint64_t epoch_at(SimTime now) const;
  /// Rank after applying the rotation active at `now`.
  std::uint64_t effective_rank(std::uint64_t rank, SimTime now) const;
  /// Index into drift().storms of the window covering `now`, or npos. When
  /// windows overlap the earliest-listed one wins.
  static constexpr std::size_t kNoStorm = static_cast<std::size_t>(-1);
  std::size_t active_storm(SimTime now) const;
  /// The pre-sampled hot set of storm `index` (final key ids, key_base
  /// applied), in draw order.
  std::vector<KeyId> storm_keys(std::size_t index) const;

 private:
  /// Ranks the rotation active at `now` adds (mod the universe); 0 at epoch 0.
  std::uint64_t rotation_shift(SimTime now) const;
  /// Rank `rank` moved on by `shift` ranks, wrapping; both below the universe.
  std::uint64_t rotated(std::uint64_t rank, std::uint64_t shift) const {
    const std::uint64_t position = rank + shift;
    return position < config_.key_universe ? position
                                           : position - config_.key_universe;
  }
  /// One draw from the popularity law as a position in rank_to_key_: a slot
  /// of storm `storm`'s hot set with its share, else the Zipf rank rotated
  /// by `shift`. At a fixed time the position -> key map is a bijection, so
  /// two draws name the same key iff they name the same position.
  std::uint64_t draw_position(Rng& rng, std::size_t storm,
                              std::uint64_t shift) const;
  KeyId key_at(std::uint64_t position) const {
    return config_.key_base + rank_to_key_[position];
  }

  Config config_;
  ZipfGenerator zipf_;
  /// rank -> key permutation (Fisher-Yates from rank_permutation_seed), so
  /// hot keys scatter uniformly over the keyspace and hence over servers.
  /// Holds offsets from key_base; the Zipf universe bound keeps them 32-bit.
  std::vector<std::uint32_t> rank_to_key_;
  /// Per-storm pre-sampled hot sets, as positions in rank_to_key_.
  std::vector<std::vector<std::uint32_t>> storm_positions_;
};

}  // namespace das::workload
