#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace das {

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::mean() const { return n_ ? mean_ : 0.0; }

double StreamingStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }
double StreamingStats::min() const { return n_ ? min_ : 0.0; }
double StreamingStats::max() const { return n_ ? max_ : 0.0; }

LogHistogram::LogHistogram(double lo, double hi, double growth)
    : lo_(lo), hi_(hi), log_gamma_(std::log(growth)) {
  DAS_CHECK(lo > 0);
  DAS_CHECK(hi > lo);
  DAS_CHECK(growth > 1.0);
  const auto nbuckets =
      static_cast<std::size_t>(std::ceil(std::log(hi / lo) / log_gamma_)) + 1;
  counts_.assign(nbuckets, 0);
}

std::size_t LogHistogram::bucket_for(double value) const {
  if (!(value > lo_)) return 0;
  const auto b = static_cast<std::size_t>(std::log(value / lo_) / log_gamma_);
  return std::min(b, counts_.size() - 1);
}

double LogHistogram::bucket_mid(std::size_t b) const {
  // Geometric midpoint of [lo*gamma^b, lo*gamma^(b+1)].
  return lo_ * std::exp(log_gamma_ * (static_cast<double>(b) + 0.5));
}

void LogHistogram::add(double value) {
  // NaN fails every comparison, so bucket_for's `!(value > lo_)` clamp would
  // silently file it (and any negative sample) into bucket 0, corrupting all
  // quantiles downstream. A non-finite or negative latency is always an
  // upstream bug — fail loudly instead of absorbing it.
  DAS_CHECK_MSG(std::isfinite(value) && value >= 0.0,
                "histogram sample must be finite and non-negative");
  if (value > hi_) ++overflow_;
  ++counts_[bucket_for(value)];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  DAS_CHECK_MSG(counts_.size() == other.counts_.size() && lo_ == other.lo_ &&
                    log_gamma_ == other.log_gamma_,
                "histogram layouts must match to merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  overflow_ += other.overflow_;
}

double LogHistogram::quantile(double q) const {
  DAS_CHECK_MSG(total_ > 0, "quantile of empty histogram");
  DAS_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile order must be in [0, 1]");
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= target && counts_[b] > 0) return bucket_mid(b);
    if (seen >= target) {
      // target fell between buckets; find the next non-empty one.
      for (std::size_t c = b; c < counts_.size(); ++c)
        if (counts_[c] > 0) return bucket_mid(c);
    }
  }
  // q == 0 with all mass later, or numeric edge: return last non-empty.
  for (std::size_t b = counts_.size(); b-- > 0;)
    if (counts_[b] > 0) return bucket_mid(b);
  return 0.0;
}

LatencyRecorder::LatencyRecorder(double hi) : hist_(1e-1, hi, 1.01) {}

void LatencyRecorder::add(double value) {
  // Histogram first: it rejects non-finite/negative samples, and adding to
  // the moments before that check would leave the two accumulators with
  // different counts after the throw.
  hist_.add(value);
  stats_.add(value);
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  stats_.merge(other.stats_);
  hist_.merge(other.hist_);
}

LatencySummary LatencyRecorder::summary() const {
  LatencySummary s;
  s.count = stats_.count();
  if (s.count == 0) return s;
  s.mean = stats_.mean();
  // A quantile is a bucket midpoint; clamped to the observed range, it can
  // never read above the largest (or below the smallest) sample.
  const auto observed = [this](double q) {
    return std::clamp(hist_.quantile(q), stats_.min(), stats_.max());
  };
  s.p50 = observed(0.50);
  s.p95 = observed(0.95);
  s.p99 = observed(0.99);
  s.p999 = observed(0.999);
  s.max = stats_.max();
  return s;
}

}  // namespace das
