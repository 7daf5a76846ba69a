// Open-addressing hash map for the scheduler hot path.
//
// std::unordered_map pays a heap node per element and a pointer chase per
// lookup; the schedulers do several lookups per dispatched event on maps that
// rarely exceed a few hundred entries, so those cache misses dominate their
// per-op cost. FlatMap stores entries inline in one contiguous array with
// linear probing, so a lookup touches one or two cache lines and erase frees
// nothing.
//
// Design choices, all in service of determinism and the hot path:
//   - power-of-two capacity, load factor <= 0.75, probe step 1;
//   - backshift deletion (Knuth 6.4 algorithm R) instead of tombstones, so
//     probe chains never grow stale and lookup cost is bounded by the load
//     factor forever, regardless of churn;
//   - a fixed splitmix64-style mixer instead of std::hash, so iteration
//     order is a pure function of the insertion/erase sequence — identical
//     across standard libraries and runs (bit-identical results depend on
//     this only being *deterministic*, not on any particular order);
//   - Entry exposes `first`/`second` like std::pair, so structured bindings
//     and `it->second` call sites carry over unchanged.
//
// Constraints (checked or documented): keys are integral, K and V are
// default-constructible and movable. Erase and rehash invalidate iterators
// and references; no call site holds one across a mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace das {

/// Mixes a 64-bit key to a well-distributed hash (SplitMix64 finaliser).
/// Deterministic across platforms, unlike std::hash which is unspecified.
/// Key placement (store/partitioner.cpp) hashes through it, so changing it
/// moves every key.
inline std::uint64_t mix_key(std::uint64_t k) {
  k ^= k >> 30;
  k *= 0xBF58476D1CE4E5B9ull;
  k ^= k >> 27;
  k *= 0x94D049BB133111EBull;
  k ^= k >> 31;
  return k;
}

/// FlatMap's bucket hash: the finaliser applied after one SplitMix64
/// increment, so key 0 does not hash to 0.
inline std::uint64_t flat_hash_mix(std::uint64_t x) {
  return mix_key(x + 0x9e3779b97f4a7c15ull);
}

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K>,
                "FlatMap keys must be integral (handles, ids)");

 public:
  /// Layout-compatible stand-in for std::pair so call sites keep using
  /// `it->first` / `it->second` and structured bindings.
  struct Entry {
    K first{};
    V second{};
  };

  FlatMap() = default;

 private:
  struct Bucket {
    Entry kv;
    bool full = false;
  };

  template <bool Const>
  class Iter {
    using BucketPtr = std::conditional_t<Const, const Bucket*, Bucket*>;
    using EntryRef = std::conditional_t<Const, const Entry&, Entry&>;
    using EntryPtr = std::conditional_t<Const, const Entry*, Entry*>;

   public:
    Iter() = default;
    Iter(BucketPtr b, BucketPtr end) : b_(b), end_(end) { skip(); }
    /// const_iterator from iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : b_(other.b_), end_(other.end_) {}

    EntryRef operator*() const { return b_->kv; }
    EntryPtr operator->() const { return &b_->kv; }
    Iter& operator++() {
      ++b_;
      skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.b_ == b.b_; }
    friend bool operator!=(const Iter& a, const Iter& b) { return a.b_ != b.b_; }

   private:
    friend class FlatMap;
    friend class Iter<true>;
    void skip() {
      while (b_ != end_ && !b_->full) ++b_;
    }
    BucketPtr b_ = nullptr;
    BucketPtr end_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return {buckets_.data(), buckets_.data() + buckets_.size()}; }
  iterator end() {
    return {buckets_.data() + buckets_.size(), buckets_.data() + buckets_.size()};
  }
  const_iterator begin() const {
    return {buckets_.data(), buckets_.data() + buckets_.size()};
  }
  const_iterator end() const {
    return {buckets_.data() + buckets_.size(), buckets_.data() + buckets_.size()};
  }

  iterator find(K key) {
    const std::size_t i = find_index(key);
    return i == kNotFound ? end() : iter_at(i);
  }
  const_iterator find(K key) const {
    const std::size_t i = find_index(key);
    return i == kNotFound ? end() : iter_at(i);
  }
  bool contains(K key) const { return find_index(key) != kNotFound; }

  V& at(K key) {
    const std::size_t i = find_index(key);
    DAS_CHECK_MSG(i != kNotFound, "FlatMap::at: key not present");
    return buckets_[i].kv.second;
  }
  const V& at(K key) const {
    const std::size_t i = find_index(key);
    DAS_CHECK_MSG(i != kNotFound, "FlatMap::at: key not present");
    return buckets_[i].kv.second;
  }

  V& operator[](K key) {
    maybe_grow();
    const std::size_t i = probe_for_insert(key);
    Bucket& b = buckets_[i];
    if (!b.full) {
      b.kv.first = key;
      b.full = true;
      ++size_;
    }
    return b.kv.second;
  }

  /// Inserts key -> V(args...) if absent; returns {iterator, inserted}.
  template <typename... Args>
  std::pair<iterator, bool> emplace(K key, Args&&... args) {
    maybe_grow();
    const std::size_t i = probe_for_insert(key);
    Bucket& b = buckets_[i];
    if (b.full) return {iter_at(i), false};
    b.kv.first = key;
    b.kv.second = V(std::forward<Args>(args)...);
    b.full = true;
    ++size_;
    return {iter_at(i), true};
  }

  std::size_t erase(K key) {
    const std::size_t i = find_index(key);
    if (i == kNotFound) return 0;
    erase_index(i);
    return 1;
  }

  /// Erases the pointed-to entry. Backshift deletion moves later chain
  /// members, so ALL iterators (including this one) are invalidated.
  void erase(const_iterator it) {
    DAS_CHECK(it.b_ != nullptr && it.b_ != it.end_ && it.b_->full);
    erase_index(static_cast<std::size_t>(it.b_ - buckets_.data()));
  }

  void clear() {
    buckets_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Pre-sizes the table so `n` entries fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // keep load <= 0.75
    if (cap > buckets_.size()) rehash(cap);
  }

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t hash_of(K key) const {
    return static_cast<std::size_t>(
        flat_hash_mix(static_cast<std::uint64_t>(key)));
  }

  iterator iter_at(std::size_t i) {
    iterator it;
    it.b_ = buckets_.data() + i;
    it.end_ = buckets_.data() + buckets_.size();
    return it;
  }
  const_iterator iter_at(std::size_t i) const {
    const_iterator it;
    it.b_ = buckets_.data() + i;
    it.end_ = buckets_.data() + buckets_.size();
    return it;
  }

  std::size_t find_index(K key) const {
    if (buckets_.empty()) return kNotFound;
    std::size_t i = hash_of(key) & mask_;
    while (buckets_[i].full) {
      if (buckets_[i].kv.first == key) return i;
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  /// First slot for `key`: its existing bucket, or the empty bucket where it
  /// belongs. Requires a non-full table (callers maybe_grow() first).
  std::size_t probe_for_insert(K key) {
    std::size_t i = hash_of(key) & mask_;
    while (buckets_[i].full && buckets_[i].kv.first != key) i = (i + 1) & mask_;
    return i;
  }

  void maybe_grow() {
    if (buckets_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > buckets_.size() * 3) {
      rehash(buckets_.size() * 2);
    }
  }

  void rehash(std::size_t new_cap) {
    DAS_CHECK((new_cap & (new_cap - 1)) == 0);
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_cap, Bucket{});
    mask_ = new_cap - 1;
    for (Bucket& b : old) {
      if (!b.full) continue;
      const std::size_t i = probe_for_insert(b.kv.first);
      buckets_[i].kv = std::move(b.kv);
      buckets_[i].full = true;
    }
  }

  void erase_index(std::size_t i) {
    // Backshift deletion: walk the probe chain after the hole; any entry
    // whose home slot is cyclically at-or-before the hole can legally fill
    // it (moving it never breaks its own chain), leaving a new hole at its
    // old position. Stops at the first empty bucket, where every chain
    // through the hole has been repaired.
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!buckets_[j].full) break;
      const std::size_t home = hash_of(buckets_[j].kv.first) & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        buckets_[i].kv = std::move(buckets_[j].kv);
        i = j;
      }
    }
    buckets_[i].kv = Entry{};  // release held resources now, not at rehash
    buckets_[i].full = false;
    --size_;
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Membership-only companion to FlatMap: same open-addressing table, same
/// deterministic fixed mixer, keyed by an integral id with no mapped value.
/// Exists so "was this handle/key seen" sets need not reach for
/// std::unordered_set (banned by das-deterministic-containers: its iteration
/// order is stdlib-specific, and even membership-only uses invite someone to
/// iterate it later).
template <typename K>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  bool contains(K key) const { return map_.contains(key); }

  /// Inserts `key`; returns true when it was not already present (the
  /// std::set::insert().second contract call sites rely on).
  bool insert(K key) { return map_.emplace(key).second; }

  std::size_t erase(K key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

 private:
  struct Empty {};
  FlatMap<K, Empty> map_;
};

}  // namespace das
