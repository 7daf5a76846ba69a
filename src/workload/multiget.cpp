#include "workload/multiget.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "common/flat_map.hpp"

namespace das::workload {

namespace {

/// Fisher-Yates over `table`, top slot down. The swap partners are drawn
/// kAhead at a time and prefetched before any swap, so the random reads of
/// a table larger than the cache overlap. Draws, bounds and swap order are
/// the plain loop's, so the permutation is too.
void shuffle(std::vector<std::uint32_t>& table, Rng& rng) {
  constexpr std::uint64_t kAhead = 16;
  std::uint64_t partner[kAhead];
  for (std::uint64_t i = table.size(); i > 1;) {
    const std::uint64_t batch = std::min(kAhead, i - 1);
    for (std::uint64_t k = 0; k < batch; ++k) {
      partner[k] = rng.next_below(i - k);
      __builtin_prefetch(&table[partner[k]]);
    }
    for (std::uint64_t k = 0; k < batch; ++k, --i) {
      std::swap(table[i - 1], table[partner[k]]);
    }
  }
}

}  // namespace

MultigetGenerator::MultigetGenerator(Config config)
    : config_(std::move(config)),
      zipf_(config_.key_universe == 0 ? 1 : config_.key_universe, config_.zipf_theta) {
  DAS_CHECK(config_.key_universe >= 1);
  DAS_CHECK(config_.fanout != nullptr);
  if (config_.drift.rotate_period_us > 0) {
    DAS_CHECK_MSG(config_.drift.rotate_stride >= 1,
                  "drift rotate_stride must be >= 1");
  }
  rank_to_key_.resize(config_.key_universe);
  std::iota(rank_to_key_.begin(), rank_to_key_.end(), std::uint32_t{0});
  Rng perm_rng{config_.rank_permutation_seed};
  shuffle(rank_to_key_, perm_rng);
  // Each storm's hot set: distinct keys drawn uniformly from the universe (a
  // storm makes previously unremarkable keys hot, so the set ignores the Zipf
  // law). Drawn as key offsets, then replaced by their positions, which one
  // pass over rank_to_key_ finds for every storm at once.
  FlatMap<std::uint32_t, std::uint32_t> position_of;  // offset -> position
  storm_positions_.reserve(config_.drift.storms.size());
  for (const StormWindow& storm : config_.drift.storms) {
    DAS_CHECK_MSG(storm.end > storm.start, "storm window must have end > start");
    DAS_CHECK_MSG(storm.share >= 0 && storm.share <= 1,
                  "storm share must be in [0, 1]");
    DAS_CHECK_MSG(storm.keys >= 1 && storm.keys <= config_.key_universe,
                  "storm hot-set size must be in [1, key_universe]");
    Rng storm_rng{storm.seed};
    FlatSet<std::uint32_t> seen;  // membership only, never iterated
    std::vector<std::uint32_t> set;
    set.reserve(static_cast<std::size_t>(storm.keys));
    while (set.size() < storm.keys) {
      const auto offset =
          static_cast<std::uint32_t>(storm_rng.next_below(config_.key_universe));
      if (!seen.insert(offset)) continue;
      set.push_back(offset);
      position_of[offset] = 0;
    }
    storm_positions_.push_back(std::move(set));
  }
  std::size_t unplaced = position_of.size();
  for (std::uint32_t p = 0; unplaced > 0; ++p) {
    const auto it = position_of.find(rank_to_key_[p]);
    if (it == position_of.end()) continue;
    it->second = p;
    --unplaced;
  }
  for (auto& set : storm_positions_) {
    for (std::uint32_t& slot : set) slot = position_of.at(slot);
  }
}

KeyId MultigetGenerator::key_for_rank(std::uint64_t rank) const {
  DAS_CHECK(rank < config_.key_universe);
  return key_at(rank);
}

std::uint64_t MultigetGenerator::epoch_at(SimTime now) const {
  if (config_.drift.rotate_period_us <= 0) return 0;
  return static_cast<std::uint64_t>(now / config_.drift.rotate_period_us);
}

std::uint64_t MultigetGenerator::rotation_shift(SimTime now) const {
  const std::uint64_t universe = config_.key_universe;
  return (epoch_at(now) % universe) * (config_.drift.rotate_stride % universe) %
         universe;
}

std::uint64_t MultigetGenerator::effective_rank(std::uint64_t rank,
                                                SimTime now) const {
  DAS_CHECK(rank < config_.key_universe);
  return rotated(rank, rotation_shift(now));
}

std::size_t MultigetGenerator::active_storm(SimTime now) const {
  for (std::size_t i = 0; i < config_.drift.storms.size(); ++i) {
    const StormWindow& storm = config_.drift.storms[i];
    if (now >= storm.start && now < storm.end && storm.share > 0) return i;
  }
  return kNoStorm;
}

std::vector<KeyId> MultigetGenerator::storm_keys(std::size_t index) const {
  DAS_CHECK(index < storm_positions_.size());
  std::vector<KeyId> keys;
  keys.reserve(storm_positions_[index].size());
  for (const std::uint32_t position : storm_positions_[index]) {
    keys.push_back(key_at(position));
  }
  return keys;
}

std::uint64_t MultigetGenerator::draw_position(Rng& rng, std::size_t storm,
                                               std::uint64_t shift) const {
  if (storm != kNoStorm && rng.chance(config_.drift.storms[storm].share)) {
    const auto& set = storm_positions_[storm];
    return set[static_cast<std::size_t>(rng.next_below(set.size()))];
  }
  return rotated(zipf_.sample(rng), shift);
}

KeyId MultigetGenerator::sample_key(Rng& rng, SimTime now) const {
  return key_at(draw_position(rng, active_storm(now), rotation_shift(now)));
}

MultigetSpec MultigetGenerator::generate(Rng& rng, SimTime now) const {
  const std::uint64_t want64 =
      std::min<std::uint64_t>(config_.fanout->sample(rng), config_.key_universe);
  const auto want = static_cast<std::size_t>(want64);
  const std::size_t storm = active_storm(now);
  const std::uint64_t shift = rotation_shift(now);
  // The draws are positions until the gather at the end, and dedup on them:
  // at a fixed time distinct positions are distinct keys, so no table read
  // sits between one draw and the next.
  MultigetSpec spec;
  std::vector<KeyId>& drawn = spec.keys;
  drawn.reserve(want);
  FlatSet<std::uint64_t> seen;  // membership only, never iterated
  seen.reserve(want * 2);
  // Rejection-sample distinct keys; bounded because want <= universe. After a
  // generous number of misses (heavy skew + large fan-out), fall back to
  // scanning ranks in popularity order, which always terminates.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 64 * want + 64;
  while (drawn.size() < want && attempts < max_attempts) {
    ++attempts;
    const std::uint64_t position = draw_position(rng, storm, shift);
    if (seen.insert(position)) drawn.push_back(position);
  }
  for (std::uint64_t rank = 0; drawn.size() < want; ++rank) {
    DAS_CHECK(rank < config_.key_universe);
    const std::uint64_t position = rotated(rank, shift);
    if (seen.insert(position)) drawn.push_back(position);
  }
  // Gather: the loads are independent, so start them all before using one.
  for (const KeyId position : drawn) __builtin_prefetch(&rank_to_key_[position]);
  for (KeyId& position : drawn) position = key_at(position);
  return spec;
}

}  // namespace das::workload
