// Random-variate families used by the workload generators.
//
// Every distribution exposes its analytic mean(): the experiment harness
// calibrates the open-loop arrival rate to hit a target utilisation, which
// requires E[service demand] in closed form rather than by Monte Carlo.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace das {

/// A real-valued random variate family. Implementations are immutable after
/// construction; sampling draws entropy only from the caller's Rng so the
/// same object can serve many deterministic streams.
class RealDistribution {
 public:
  virtual ~RealDistribution() = default;
  /// Draws one sample.
  virtual double sample(Rng& rng) const = 0;
  /// Exact expected value.
  virtual double mean() const = 0;
};

using RealDistPtr = std::shared_ptr<const RealDistribution>;

/// Point mass at `value`.
RealDistPtr make_constant(double value);
/// Uniform on [lo, hi].
RealDistPtr make_uniform_real(double lo, double hi);
/// Exponential with the given mean.
RealDistPtr make_exponential(double mean);
/// Lognormal parameterised by its own mean and the sigma of the underlying
/// normal (mu is derived), convenient for "mean X with heavy tail" workloads.
RealDistPtr make_lognormal_mean(double mean, double sigma);
/// Generalized Pareto (location, scale, shape>0), truncated at `cap` to keep
/// the mean finite and the simulation stable; models Facebook-ETC-like value
/// sizes. mean() is computed for the truncated law.
RealDistPtr make_generalized_pareto(double location, double scale, double shape,
                                    double cap);
/// Real two-point mixture: `small` w.p. (1-p_large), else `large`. The value
/// sizes of a "mostly small, occasionally huge" KV workload.
RealDistPtr make_bimodal_real(double small, double large, double p_large);

/// Integer-valued family (multiget fan-out, replica counts, ...).
class IntDistribution {
 public:
  virtual ~IntDistribution() = default;
  virtual std::uint32_t sample(Rng& rng) const = 0;
  virtual double mean() const = 0;
};

using IntDistPtr = std::shared_ptr<const IntDistribution>;

/// Point mass at k (k >= 1).
IntDistPtr make_fixed_int(std::uint32_t k);
/// Uniform integer on [lo, hi].
IntDistPtr make_uniform_int(std::uint32_t lo, std::uint32_t hi);
/// Shifted geometric on {1, 2, ...} with success probability p in (0, 1],
/// truncated at `cap`.
IntDistPtr make_geometric(double p, std::uint32_t cap);
/// Zipf-distributed integer on {1..n} with exponent theta >= 0 (theta = 0 is
/// uniform); heavier tail toward 1 for larger theta.
IntDistPtr make_zipf_int(std::uint32_t n, double theta);
/// Two-point mixture: `small` w.p. (1-p_large), else `large`.
IntDistPtr make_bimodal(std::uint32_t small, std::uint32_t large, double p_large);

/// Zipf sampler over ranks {0..n-1}: rank 0 is the most popular. Exact
/// inverse-CDF sampling: a draw u maps to the first rank whose CDF is >= u.
/// O(1) expected draw; theta = 0 degenerates to uniform.
///
/// theta = 0 keeps no table. Every term of the cumulative sum is exactly 1,
/// so the sum is exact below 2^53, the normaliser is n and the CDF entries
/// are exactly fl((r + 1) / n). rank_for() starts from floor(u * n) and
/// corrects by a step or two, comparing against those same quotients.
///
/// theta > 0 precomputes the CDF (O(n) setup) and a guide table (Chen &
/// Asau's indexed search): [0, 1) is cut into one equal-width bucket per
/// four ranks, and each bucket remembers how many CDF entries fall in the
/// buckets before it. No draw in bucket j can map to a rank below that
/// count, so a forward scan from it finds the exact answer — the first rank
/// whose CDF is >= u, as a binary search would — after about
/// n / (2 * buckets) = 2 steps on average, whatever theta is.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  /// One next_double() draw mapped through rank_for.
  std::uint64_t sample(Rng& rng) const;
  /// The rank a uniform draw u in [0, 1] maps to: the first r with
  /// cdf_at(r) >= u, i.e. exactly std::lower_bound over the CDF.
  std::uint64_t rank_for(double u) const;
  /// Cumulative probability of ranks 0..r; cdf_at(n - 1) is exactly 1.
  double cdf_at(std::uint64_t rank) const {
    return uniform() ? static_cast<double>(rank + 1) / norm_ : cdf_[rank];
  }
  /// Guide-table size: ceil(n / 4) buckets, or 0 for theta = 0 (no table).
  std::size_t guide_buckets() const { return guide_.size(); }
  std::uint64_t universe() const { return n_; }
  double theta() const { return theta_; }
  /// P(rank = r).
  double pmf(std::uint64_t rank) const;

 private:
  bool uniform() const { return theta_ == 0; }

  std::uint64_t n_;
  double theta_;
  double norm_;                 // generalized harmonic H_{n,theta}; n at theta 0
  std::vector<double> cdf_;     // cumulative probabilities, size n; empty at theta 0
  /// guide_[j]: how many CDF entries lie in buckets before j, so the first
  /// rank any draw in bucket j can map to. Empty at theta 0.
  std::vector<std::uint32_t> guide_;

  /// The guide bucket of a probability in [0, 1]. Monotone in p, which is
  /// all exactness needs: rounding in p * buckets can shift a boundary but
  /// never lets a draw's bucket precede an entry at or above it.
  std::size_t bucket_of(double p) const {
    const auto j = static_cast<std::size_t>(p * static_cast<double>(guide_.size()));
    return std::min(j, guide_.size() - 1);
  }
};

}  // namespace das
