// Streaming statistics and latency histograms.
//
// Experiments record millions of request completion times; we keep both a
// Welford accumulator (exact mean/variance) and a log-bucketed histogram
// (HDR-style, bounded relative error) so quantiles are cheap and memory is
// constant regardless of run length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace das {

/// Welford online accumulator: exact mean and unbiased variance in one pass.
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Log-bucketed histogram over positive values with bounded relative error.
///
/// Buckets are geometric: value v lands in bucket floor(log(v/lo)/log(gamma)).
/// With the default growth of 1% the quantile error is <= 0.5%. Values below
/// `lo` clamp to bucket 0; values above `hi` clamp to the last bucket (and
/// are counted so the clamp is observable). Non-finite or negative samples
/// are rejected (DAS_CHECK): they indicate an upstream bug and would
/// otherwise corrupt every quantile by landing silently in bucket 0.
class LogHistogram {
 public:
  /// Range [lo, hi] in the caller's unit, growth factor per bucket (> 1).
  explicit LogHistogram(double lo = 1e-1, double hi = 1e9, double growth = 1.01);

  void add(double value);
  void merge(const LogHistogram& other);

  std::size_t count() const { return total_; }
  std::size_t overflow_count() const { return overflow_; }
  /// Quantile in [0, 1]; returns the geometric midpoint of the bucket that
  /// contains the q-th sample.
  ///
  /// Empty-input contract: querying an empty histogram throws
  /// std::logic_error with the fixed message "quantile of empty histogram"
  /// (wrapped in the DAS_CHECK prefix). There is no meaningful value to
  /// return — 0 would read as "zero latency" in a report — so the caller
  /// decides: LatencyRecorder::summary() checks count() first and pins every
  /// field of an empty summary to zero instead of querying.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

 private:
  std::size_t bucket_for(double value) const;
  double bucket_mid(std::size_t b) const;

  double lo_, hi_, log_gamma_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
  std::size_t overflow_ = 0;
};

/// One-line summary of a latency population; what benches print per row.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;
};

/// Combined accumulator the metrics module feeds.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(double hi = 1e9);
  void add(double value);
  void merge(const LatencyRecorder& other);
  /// Quantiles are clamped to the observed [min, max]. With no samples
  /// recorded, every field is zero (count included) — the pinned empty-input
  /// behavior; quantiles are never queried on an empty histogram.
  LatencySummary summary() const;
  const StreamingStats& moments() const { return stats_; }
  const LogHistogram& histogram() const { return hist_; }

 private:
  StreamingStats stats_;
  LogHistogram hist_;
};

}  // namespace das
