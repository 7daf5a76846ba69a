// FlatMap: open-addressing semantics, backshift deletion, determinism.
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace das {
namespace {

TEST(FlatMap, StartsEmpty) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.contains(0));
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  auto [it, inserted] = m.emplace(5, 50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 5u);
  EXPECT_EQ(it->second, 50);
  EXPECT_TRUE(m.contains(5));
  EXPECT_EQ(m.at(5), 50);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.erase(5), 1u);
  EXPECT_FALSE(m.contains(5));
  EXPECT_EQ(m.erase(5), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, EmplaceDoesNotOverwrite) {
  FlatMap<std::uint64_t, int> m;
  m.emplace(1, 10);
  auto [it, inserted] = m.emplace(1, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, BracketDefaultConstructsAndUpdates) {
  FlatMap<std::uint64_t, double> m;
  EXPECT_EQ(m[3], 0.0);
  m[3] = 1.5;
  m[3] += 1.0;
  EXPECT_DOUBLE_EQ(m.at(3), 2.5);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, AtOnMissingKeyThrows) {
  FlatMap<std::uint64_t, int> m;
  m.emplace(1, 1);
  EXPECT_THROW(m.at(2), std::logic_error);
  const auto& cm = m;
  EXPECT_THROW(cm.at(2), std::logic_error);
}

TEST(FlatMap, GrowthPreservesEverything) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 5000;
  for (std::uint64_t k = 0; k < kN; ++k) m.emplace(k * 31 + 1, k);
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(m.contains(k * 31 + 1)) << k;
    EXPECT_EQ(m.at(k * 31 + 1), k);
  }
}

TEST(FlatMap, IterationVisitsEveryEntryOnce) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t expected_keys = 0, expected_vals = 0;
  for (std::uint64_t k = 1; k <= 200; ++k) {
    m.emplace(k, 1000 + k);
    expected_keys += k;
    expected_vals += 1000 + k;
  }
  std::uint64_t keys = 0, vals = 0;
  std::size_t n = 0;
  for (const auto& [k, v] : m) {
    keys += k;
    vals += v;
    ++n;
  }
  EXPECT_EQ(n, 200u);
  EXPECT_EQ(keys, expected_keys);
  EXPECT_EQ(vals, expected_vals);
}

TEST(FlatMap, EraseByIterator) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 10; ++k) m.emplace(k, static_cast<int>(k));
  const std::uint64_t victim = m.begin()->first;
  m.erase(m.begin());
  EXPECT_EQ(m.size(), 9u);
  EXPECT_FALSE(m.contains(victim));
}

TEST(FlatMap, IteratorSecondIsMutable) {
  FlatMap<std::uint64_t, double> m;
  m.emplace(9, 1.0);
  m.begin()->second = -1.0;
  EXPECT_DOUBLE_EQ(m.at(9), -1.0);
}

TEST(FlatMap, ClearAndReuse) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 64; ++k) m.emplace(k, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  m.emplace(3, 3);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(3), 3);
}

TEST(FlatMap, ReservePreventsGrowthInvalidation) {
  FlatMap<std::uint64_t, int> m;
  m.reserve(1000);
  m.emplace(1, 1);
  const int* addr = &m.at(1);
  for (std::uint64_t k = 2; k <= 1000; ++k) m.emplace(k, static_cast<int>(k));
  EXPECT_EQ(addr, &m.at(1));  // no rehash happened
}

TEST(FlatMap, HoldsNonTrivialValues) {
  FlatMap<std::uint64_t, std::vector<std::string>> m;
  m[1].push_back("a");
  m[1].push_back("b");
  m[2].push_back("c");
  EXPECT_EQ(m.at(1).size(), 2u);
  m.erase(1);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(2).front(), "c");
}

// Backshift-deletion torture: mirror a FlatMap against std::unordered_map
// through a long random insert/erase/update stream and require identical
// contents throughout. High churn at small capacity maximizes probe-chain
// collisions, which is exactly what backshift must repair.
TEST(FlatMap, RandomizedMirrorsUnorderedMap) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADull}) {
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng{seed};
    for (int step = 0; step < 20000; ++step) {
      // Key space of 97 forces constant collisions and reuse-after-erase.
      const std::uint64_t key = rng.next_u64() % 97;
      const std::uint64_t roll = rng.next_u64() % 10;
      if (roll < 5) {
        const std::uint64_t value = rng.next_u64();
        flat[key] = value;
        ref[key] = value;
      } else if (roll < 8) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else {
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_FALSE(flat.contains(key));
        } else {
          ASSERT_TRUE(flat.contains(key));
          EXPECT_EQ(flat.at(key), it->second);
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
    }
    // Full final sweep in both directions.
    for (const auto& [k, v] : ref) {
      ASSERT_TRUE(flat.contains(k));
      EXPECT_EQ(flat.at(k), v);
    }
    std::size_t visited = 0;
    for (const auto& [k, v] : flat) {
      const auto it = ref.find(k);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(it->second, v);
      ++visited;
    }
    EXPECT_EQ(visited, ref.size());
  }
}

// Bit-identical experiment results rely on every container the simulation
// iterates being deterministic. Two maps fed the same operation sequence
// must iterate in the same order — across runs and across standard
// libraries (the hash is ours, not std::hash).
TEST(FlatMap, IterationOrderIsDeterministic) {
  const auto build = [] {
    FlatMap<std::uint64_t, int> m;
    Rng rng{7};
    for (int i = 0; i < 500; ++i) m[rng.next_u64() % 300] = i;
    for (int i = 0; i < 200; ++i) m.erase(rng.next_u64() % 300);
    return m;
  };
  const auto a = build();
  const auto b = build();
  std::vector<std::uint64_t> ka, kb;
  for (const auto& [k, v] : a) ka.push_back(k);
  for (const auto& [k, v] : b) kb.push_back(k);
  EXPECT_EQ(ka, kb);
}

TEST(FlatSet, InsertContainsErase) {
  FlatSet<std::uint32_t> set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));  // duplicate: reports already-present
  EXPECT_TRUE(set.insert(9));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(8));
  EXPECT_EQ(set.erase(7), 1u);
  EXPECT_EQ(set.erase(7), 0u);
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.contains(9));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(9));
}

TEST(FlatSet, MatchesReferenceSetUnderChurn) {
  FlatSet<std::uint64_t> flat;
  std::set<std::uint64_t> ref;
  Rng rng{11};
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.next_u64() % 512;
    if (rng.uniform(0.0, 1.0) < 0.6) {
      EXPECT_EQ(flat.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(flat.contains(key), ref.count(key) == 1);
  }
}

TEST(MixKey, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix_key(42), mix_key(42));
  // Pinned values: key placement and FlatMap iteration order both follow
  // from these, and the golden grid depends on both.
  EXPECT_EQ(mix_key(42), 0xa759ea27d4727622ull);
  EXPECT_EQ(flat_hash_mix(42), 0xbdd732262feb6e95ull);
  // Sequential keys should land in different low-bit buckets mostly.
  int same_bucket = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if ((mix_key(k) & 0xFF) == (mix_key(k + 1) & 0xFF)) ++same_bucket;
  }
  EXPECT_LT(same_bucket, 20);
}

}  // namespace
}  // namespace das
