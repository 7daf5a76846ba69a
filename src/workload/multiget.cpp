#include "workload/multiget.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/check.hpp"
#include "common/flat_map.hpp"

namespace das::workload {

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
  for (std::uint64_t i = config_.key_universe; i > 1; --i) {
    const std::uint64_t j = perm_rng.next_below(i);
    std::swap(rank_to_key_[i - 1], rank_to_key_[j]);
  }
  storm_sets_.reserve(config_.drift.storms.size());
  for (const StormWindow& storm : config_.drift.storms) {
    DAS_CHECK_MSG(storm.end > storm.start, "storm window must have end > start");
    DAS_CHECK_MSG(storm.share >= 0 && storm.share <= 1,
                  "storm share must be in [0, 1]");
    DAS_CHECK_MSG(storm.keys >= 1 && storm.keys <= config_.key_universe,
                  "storm hot-set size must be in [1, key_universe]");
    // Distinct hot keys drawn uniformly from the universe: a storm makes
    // previously unremarkable keys hot, so the set ignores the Zipf law.
    Rng storm_rng{storm.seed};
    FlatSet<KeyId> seen;  // membership only, never iterated
    std::vector<KeyId> set;
    set.reserve(static_cast<std::size_t>(storm.keys));
    while (set.size() < storm.keys) {
      const KeyId key = config_.key_base + storm_rng.next_below(config_.key_universe);
      if (seen.insert(key)) set.push_back(key);
    }
    storm_sets_.push_back(std::move(set));
  }
}

KeyId MultigetGenerator::key_for_rank(std::uint64_t rank) const {
  DAS_CHECK(rank < config_.key_universe);
  return config_.key_base + rank_to_key_[rank];
}

std::uint64_t MultigetGenerator::epoch_at(SimTime now) const {
  if (config_.drift.rotate_period_us <= 0) return 0;
  return static_cast<std::uint64_t>(now / config_.drift.rotate_period_us);
}

std::uint64_t MultigetGenerator::effective_rank(std::uint64_t rank,
                                                SimTime now) const {
  const std::uint64_t epoch = epoch_at(now);
  if (epoch == 0) return rank;
  const std::uint64_t shift =
      (epoch % config_.key_universe) * (config_.drift.rotate_stride % config_.key_universe);
  return (rank + shift) % config_.key_universe;
}

std::size_t MultigetGenerator::active_storm(SimTime now) const {
  for (std::size_t i = 0; i < config_.drift.storms.size(); ++i) {
    const StormWindow& storm = config_.drift.storms[i];
    if (now >= storm.start && now < storm.end && storm.share > 0) return i;
  }
  return kNoStorm;
}

const std::vector<KeyId>& MultigetGenerator::storm_keys(std::size_t index) const {
  DAS_CHECK(index < storm_sets_.size());
  return storm_sets_[index];
}

KeyId MultigetGenerator::sample_key(Rng& rng, SimTime now) const {
  const std::size_t storm = active_storm(now);
  if (storm != kNoStorm && rng.chance(config_.drift.storms[storm].share)) {
    const auto& set = storm_sets_[storm];
    return set[static_cast<std::size_t>(rng.next_below(set.size()))];
  }
  return key_for_rank(effective_rank(zipf_.sample(rng), now));
}

MultigetSpec MultigetGenerator::generate(Rng& rng, SimTime now) const {
  const std::uint64_t want64 =
      std::min<std::uint64_t>(config_.fanout->sample(rng), config_.key_universe);
  const auto want = static_cast<std::size_t>(want64);
  MultigetSpec spec;
  spec.keys.reserve(want);
  FlatSet<KeyId> seen;  // membership only, never iterated
  seen.reserve(want * 2);
  // Rejection-sample distinct keys; bounded because want <= universe. After a
  // generous number of misses (heavy skew + large fan-out), fall back to
  // scanning ranks in popularity order, which always terminates.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 64 * want + 64;
  while (spec.keys.size() < want && attempts < max_attempts) {
    ++attempts;
    const KeyId key = sample_key(rng, now);
    if (seen.insert(key)) spec.keys.push_back(key);
  }
  for (std::uint64_t rank = 0; spec.keys.size() < want; ++rank) {
    DAS_CHECK(rank < config_.key_universe);
    const KeyId key = key_for_rank_at(rank, now);
    if (seen.insert(key)) spec.keys.push_back(key);
  }
  return spec;
}

std::string MultigetGenerator::describe() const {
  std::ostringstream os;
  os << "multiget(universe=" << config_.key_universe << ", theta=" << config_.zipf_theta
     << ", fanout=" << config_.fanout->describe();
  if (config_.key_base != 0) os << ", base=" << config_.key_base;
  if (config_.drift.rotate_period_us > 0) {
    os << ", rotate=" << config_.drift.rotate_period_us << "us/"
       << config_.drift.rotate_stride;
  }
  if (!config_.drift.storms.empty()) os << ", storms=" << config_.drift.storms.size();
  os << ")";
  return os.str();
}

Trace Trace::generate(const MultigetGenerator& gen, double arrival_rate,
                      std::size_t count, Rng& rng) {
  DAS_CHECK(arrival_rate > 0);
  Trace trace;
  trace.requests.reserve(count);
  SimTime t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(1.0 / arrival_rate);
    TraceRequest req;
    req.arrival = t;
    req.keys = gen.generate(rng).keys;
    trace.requests.push_back(std::move(req));
  }
  return trace;
}

void Trace::save(const std::string& path) const {
  std::ofstream out{path};
  DAS_CHECK_MSG(out.good(), "cannot open trace file for writing: " + path);
  out.precision(17);
  for (const auto& req : requests) {
    out << req.arrival << ' ' << req.keys.size();
    for (KeyId k : req.keys) out << ' ' << k;
    out << '\n';
  }
  DAS_CHECK_MSG(out.good(), "short write to trace file: " + path);
}

Trace Trace::load(const std::string& path) {
  std::ifstream in{path};
  DAS_CHECK_MSG(in.good(), "cannot open trace file: " + path);
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    TraceRequest req;
    std::size_t n = 0;
    ls >> req.arrival >> n;
    DAS_CHECK_MSG(!ls.fail(), "malformed trace line: " + line);
    req.keys.resize(n);
    for (auto& k : req.keys) ls >> k;
    DAS_CHECK_MSG(!ls.fail(), "truncated trace line: " + line);
    trace.requests.push_back(std::move(req));
  }
  return trace;
}

std::size_t Trace::total_operations() const {
  std::size_t total = 0;
  for (const auto& req : requests) total += req.keys.size();
  return total;
}

}  // namespace das::workload
