#include "workload/multiget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

namespace das::workload {
namespace {

MultigetGenerator make_gen(std::uint64_t universe, double theta, IntDistPtr fanout) {
  MultigetGenerator::Config cfg;
  cfg.key_universe = universe;
  cfg.zipf_theta = theta;
  cfg.fanout = std::move(fanout);
  return MultigetGenerator{cfg};
}

TEST(MultigetGenerator, KeysAreDistinct) {
  auto gen = make_gen(1000, 0.99, make_fixed_int(16));
  Rng rng{1};
  for (int i = 0; i < 2000; ++i) {
    const auto spec = gen.generate(rng);
    ASSERT_EQ(spec.keys.size(), 16u);
    std::set<KeyId> uniq(spec.keys.begin(), spec.keys.end());
    ASSERT_EQ(uniq.size(), 16u);
  }
}

TEST(MultigetGenerator, KeysWithinUniverse) {
  auto gen = make_gen(100, 0.5, make_uniform_int(1, 8));
  Rng rng{2};
  for (int i = 0; i < 5000; ++i) {
    for (const KeyId k : gen.generate(rng).keys) ASSERT_LT(k, 100u);
  }
}

TEST(MultigetGenerator, FanoutClampedToUniverse) {
  auto gen = make_gen(5, 0.0, make_fixed_int(50));
  Rng rng{3};
  const auto spec = gen.generate(rng);
  EXPECT_EQ(spec.keys.size(), 5u);  // all keys of the universe, distinct
  std::set<KeyId> uniq(spec.keys.begin(), spec.keys.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(MultigetGenerator, HeavySkewStillTerminatesWithDistinctKeys) {
  auto gen = make_gen(64, 1.5, make_fixed_int(32));
  Rng rng{4};
  for (int i = 0; i < 500; ++i) {
    const auto spec = gen.generate(rng);
    std::set<KeyId> uniq(spec.keys.begin(), spec.keys.end());
    ASSERT_EQ(uniq.size(), 32u);
  }
}

TEST(MultigetGenerator, SkewIsObservable) {
  auto gen = make_gen(10000, 0.99, make_fixed_int(1));
  Rng rng{5};
  std::map<KeyId, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[gen.generate(rng).keys[0]];
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  // Hottest key should be far above the uniform expectation of 10.
  EXPECT_GT(max_count, 1000);
}

TEST(MultigetGenerator, ThetaZeroIsRoughlyUniform) {
  auto gen = make_gen(100, 0.0, make_fixed_int(1));
  Rng rng{6};
  std::map<KeyId, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.generate(rng).keys[0]];
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [k, c] : counts) EXPECT_NEAR(c, n / 100, n / 100 * 0.2);
}

TEST(MultigetGenerator, RankToKeyIsABijection) {
  auto gen = make_gen(10000, 0.9, make_fixed_int(1));
  std::set<KeyId> keys;
  for (std::uint64_t r = 0; r < 10000; ++r) keys.insert(gen.key_for_rank(r));
  EXPECT_EQ(keys.size(), 10000u);
  EXPECT_EQ(*keys.rbegin(), 9999u);
}

TEST(MultigetGenerator, RankPermutationScattersHotKeys) {
  auto gen = make_gen(10000, 0.9, make_fixed_int(1));
  // The top-100 ranks should not cluster in a narrow key-id band.
  KeyId lo = 10000, hi = 0;
  for (std::uint64_t r = 0; r < 100; ++r) {
    lo = std::min(lo, gen.key_for_rank(r));
    hi = std::max(hi, gen.key_for_rank(r));
  }
  EXPECT_LT(lo, 2000u);
  EXPECT_GT(hi, 8000u);
}

TEST(MultigetGenerator, MeanFanoutDelegates) {
  auto gen = make_gen(100, 0.0, make_fixed_int(7));
  EXPECT_DOUBLE_EQ(gen.mean_fanout(), 7.0);
}

TEST(MultigetGenerator, DeterministicForSameRngSeed) {
  auto gen = make_gen(2000, 0.9, make_geometric(0.2, 32));
  Rng a{9}, b{9};
  for (int i = 0; i < 200; ++i) ASSERT_EQ(gen.generate(a).keys, gen.generate(b).keys);
}


// ---------------------------------------------------------------------------
// The generator draws positions in its rank -> key table, dedups on them and
// gathers the keys last. The reference below is the plain key-space loop:
// each draw is turned into a key at once and duplicates are rejected by key.
// The two must agree draw for draw, including the RNG state they leave.

/// Plain Fisher-Yates: the rank -> key table of universe `n`.
std::vector<std::uint32_t> reference_shuffle(std::uint64_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> table(n);
  std::iota(table.begin(), table.end(), std::uint32_t{0});
  Rng rng{seed};
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.next_below(i);
    std::swap(table[i - 1], table[j]);
  }
  return table;
}

class ReferenceGenerator {
 public:
  explicit ReferenceGenerator(const MultigetGenerator::Config& cfg)
      : cfg_(cfg),
        zipf_(cfg.key_universe, cfg.zipf_theta),
        table_(reference_shuffle(cfg.key_universe, cfg.rank_permutation_seed)) {
    for (const StormWindow& storm : cfg.drift.storms) {
      Rng storm_rng{storm.seed};
      std::set<KeyId> seen;
      std::vector<KeyId> set;
      while (set.size() < storm.keys) {
        const KeyId key = cfg.key_base + storm_rng.next_below(cfg.key_universe);
        if (seen.insert(key).second) set.push_back(key);
      }
      storms_.push_back(std::move(set));
    }
  }

  const std::vector<KeyId>& storm_keys(std::size_t i) const { return storms_[i]; }

  KeyId key_for_rank_at(std::uint64_t rank, SimTime now) const {
    const std::uint64_t u = cfg_.key_universe;
    std::uint64_t epoch = 0;
    if (cfg_.drift.rotate_period_us > 0) {
      epoch = static_cast<std::uint64_t>(now / cfg_.drift.rotate_period_us);
    }
    if (epoch != 0) rank = (rank + (epoch % u) * (cfg_.drift.rotate_stride % u)) % u;
    return cfg_.key_base + table_[rank];
  }

  KeyId sample_key(Rng& rng, SimTime now) const {
    for (std::size_t i = 0; i < cfg_.drift.storms.size(); ++i) {
      const StormWindow& storm = cfg_.drift.storms[i];
      if (now < storm.start || now >= storm.end || storm.share <= 0) continue;
      if (rng.chance(storm.share)) {
        return storms_[i][static_cast<std::size_t>(rng.next_below(storms_[i].size()))];
      }
      break;
    }
    return key_for_rank_at(zipf_.sample(rng), now);
  }

  std::vector<KeyId> generate(Rng& rng, SimTime now) const {
    const std::uint64_t want =
        std::min<std::uint64_t>(cfg_.fanout->sample(rng), cfg_.key_universe);
    std::vector<KeyId> keys;
    std::set<KeyId> seen;
    std::size_t attempts = 0;
    while (keys.size() < want && attempts < 64 * want + 64) {
      ++attempts;
      const KeyId key = sample_key(rng, now);
      if (seen.insert(key).second) keys.push_back(key);
    }
    for (std::uint64_t rank = 0; keys.size() < want; ++rank) {
      const KeyId key = key_for_rank_at(rank, now);
      if (seen.insert(key).second) keys.push_back(key);
    }
    return keys;
  }

 private:
  MultigetGenerator::Config cfg_;
  ZipfGenerator zipf_;
  std::vector<std::uint32_t> table_;
  std::vector<std::vector<KeyId>> storms_;
};

/// Runs generate and sample_key against the reference at times spread over
/// [0, horizon), with twin RNG streams, and checks they never diverge.
void expect_matches_reference(const MultigetGenerator::Config& cfg,
                              SimTime horizon, int requests) {
  const MultigetGenerator gen{cfg};
  const ReferenceGenerator ref{cfg};
  for (std::size_t i = 0; i < cfg.drift.storms.size(); ++i) {
    ASSERT_EQ(gen.storm_keys(i), ref.storm_keys(i)) << "storm " << i;
  }
  Rng a{77}, b{77};
  for (int r = 0; r < requests; ++r) {
    const SimTime now = horizon * r / requests;
    ASSERT_EQ(gen.generate(a, now).keys, ref.generate(b, now)) << "request " << r;
    ASSERT_EQ(gen.sample_key(a, now), ref.sample_key(b, now)) << "request " << r;
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "request " << r;
  }
}

MultigetGenerator::Config drift_config(std::uint64_t universe, double theta,
                                       IntDistPtr fanout) {
  MultigetGenerator::Config cfg;
  cfg.key_universe = universe;
  cfg.zipf_theta = theta;
  cfg.fanout = std::move(fanout);
  cfg.key_base = 1000;
  cfg.drift.rotate_period_us = 100;
  cfg.drift.rotate_stride = 7;
  return cfg;
}

StormWindow storm(SimTime start, SimTime end, std::uint64_t keys, double share,
                  std::uint64_t seed) {
  StormWindow w;
  w.start = start;
  w.end = end;
  w.keys = keys;
  w.share = share;
  w.seed = seed;
  return w;
}

TEST(MultigetGather, MatchesKeySpaceLoopAcrossSkewRotationAndStorms) {
  for (const double theta : {0.0, 0.9, 1.2}) {
    SCOPED_TRACE(theta);
    MultigetGenerator::Config cfg = drift_config(500, theta, make_geometric(0.125, 64));
    // The first storm is active over [1000, 3000); the second overlaps it
    // (and loses to it there) and alone covers [3000, 4000); the third has
    // share 0 and never counts as active.
    cfg.drift.storms.push_back(storm(1000, 3000, 5, 0.4, 11));
    cfg.drift.storms.push_back(storm(2000, 4000, 40, 0.7, 12));
    cfg.drift.storms.push_back(storm(0, 5000, 3, 0.0, 13));
    expect_matches_reference(cfg, 5000, 2000);
  }
}

TEST(MultigetGather, MatchesKeySpaceLoopWithoutDrift) {
  for (const double theta : {0.0, 0.9, 1.2}) {
    SCOPED_TRACE(theta);
    MultigetGenerator::Config cfg;
    cfg.key_universe = 10000;
    cfg.zipf_theta = theta;
    cfg.fanout = make_geometric(0.125, 64);
    expect_matches_reference(cfg, 0, 2000);
  }
}

TEST(MultigetGather, MatchesKeySpaceLoopOnTinyAndFullUniverses) {
  for (const std::uint64_t universe : {1u, 2u, 16u, 17u}) {
    for (const double theta : {0.0, 1.2}) {
      SCOPED_TRACE(testing::Message() << universe << " keys, theta " << theta);
      // A fan-out past the universe asks for every key; a storm whose whole
      // share lands on one hot key then exhausts the draws and forces the
      // popularity-order scan.
      MultigetGenerator::Config cfg =
          drift_config(universe, theta,
                       make_fixed_int(static_cast<std::uint32_t>(universe + 3)));
      cfg.drift.storms.push_back(storm(300, 600, 1, 1.0, 5));
      expect_matches_reference(cfg, 900, 300);
    }
  }
}

TEST(MultigetGather, PermutationMatchesPlainFisherYates) {
  for (const std::uint64_t n : {1u, 2u, 15u, 16u, 17u, 33u, 128000u}) {
    for (const std::uint64_t seed : {std::uint64_t{0x9E3779B9}, std::uint64_t{42}}) {
      MultigetGenerator::Config cfg;
      cfg.key_universe = n;
      cfg.fanout = make_fixed_int(1);
      cfg.rank_permutation_seed = seed;
      const MultigetGenerator gen{cfg};
      const std::vector<std::uint32_t> ref = reference_shuffle(n, seed);
      for (std::uint64_t r = 0; r < n; ++r) {
        ASSERT_EQ(gen.key_for_rank(r), ref[r]) << "n " << n << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace das::workload
