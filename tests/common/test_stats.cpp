#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace das {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, SingleSample) {
  StreamingStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(StreamingStats, MatchesNaiveComputation) {
  Rng rng{1};
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.uniform(-100, 100);
  StreamingStats s;
  for (double x : xs) s.add(x);

  const double naive_mean = std::accumulate(xs.begin(), xs.end(), 0.0) /
                            static_cast<double>(xs.size());
  double naive_var = 0;
  for (double x : xs) naive_var += (x - naive_mean) * (x - naive_mean);
  naive_var /= static_cast<double>(xs.size() - 1);

  EXPECT_NEAR(s.mean(), naive_mean, 1e-9);
  EXPECT_NEAR(s.variance(), naive_var, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(s.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(StreamingStats, MergeEqualsSinglePass) {
  Rng rng{2};
  StreamingStats all, a, b;
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.exponential(10.0);
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmptyIsIdentity) {
  StreamingStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  StreamingStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(LogHistogram, QuantilesOfKnownPopulation) {
  LogHistogram h{1.0, 1e6, 1.01};
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<double>(i));
  // Relative error bounded by the bucket growth factor.
  EXPECT_NEAR(h.p50(), 5000.0, 5000.0 * 0.015);
  EXPECT_NEAR(h.p99(), 9900.0, 9900.0 * 0.015);
  EXPECT_NEAR(h.quantile(1.0), 10000.0, 10000.0 * 0.015);
}

TEST(LogHistogram, CountTracksAdds) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  h.add(5.0);
  h.add(7.0);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LogHistogram, QuantileOnEmptyThrows) {
  LogHistogram h;
  EXPECT_THROW(h.quantile(0.5), std::logic_error);
}

// The empty-input behavior is pinned: a fixed, deterministic message (tools
// and tests match on it), thrown for every quantile order including the
// p50/p99 shorthands.
TEST(LogHistogram, EmptyQuantileMessageIsDeterministic) {
  LogHistogram h;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    try {
      h.quantile(q);
      FAIL() << "quantile(" << q << ") on empty histogram did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string{e.what()}.find("quantile of empty histogram"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(h.p50(), std::logic_error);
  EXPECT_THROW(h.p999(), std::logic_error);
}

TEST(LogHistogram, OutOfRangeQuantileOrderThrows) {
  LogHistogram h;
  h.add(1.0);
  EXPECT_THROW(h.quantile(-0.01), std::logic_error);
  EXPECT_THROW(h.quantile(1.01), std::logic_error);
}

TEST(LogHistogram, BelowRangeClampsToFirstBucket) {
  LogHistogram h{1.0, 100.0, 1.05};
  h.add(0.001);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LT(h.quantile(0.5), 1.1);
}

TEST(LogHistogram, AboveRangeClampsAndCounts) {
  LogHistogram h{1.0, 100.0, 1.05};
  h.add(1e9);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_GT(h.quantile(0.5), 95.0);
}

TEST(LogHistogram, RejectsNonFiniteAndNegativeSamples) {
  // Regression: NaN fails every comparison, so the `!(value > lo)` clamp in
  // bucket_for silently filed NaN (and negatives) into bucket 0, corrupting
  // every quantile downstream. These must throw instead.
  LogHistogram h{1.0, 1e6, 1.01};
  EXPECT_THROW(h.add(std::numeric_limits<double>::quiet_NaN()), std::logic_error);
  EXPECT_THROW(h.add(std::numeric_limits<double>::infinity()), std::logic_error);
  EXPECT_THROW(h.add(-std::numeric_limits<double>::infinity()), std::logic_error);
  EXPECT_THROW(h.add(-1.0), std::logic_error);
  EXPECT_EQ(h.count(), 0u);  // rejected samples leave no trace
  h.add(0.0);  // zero is a legal (if degenerate) latency: clamps to bucket 0
  h.add(5.0);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LatencyRecorder, RejectedSampleLeavesRecorderConsistent) {
  LatencyRecorder rec;
  rec.add(10.0);
  EXPECT_THROW(rec.add(std::numeric_limits<double>::quiet_NaN()), std::logic_error);
  EXPECT_THROW(rec.add(-5.0), std::logic_error);
  // Histogram and moment accumulator must agree after the throw.
  EXPECT_EQ(rec.moments().count(), 1u);
  EXPECT_EQ(rec.histogram().count(), 1u);
  EXPECT_DOUBLE_EQ(rec.summary().mean, 10.0);
}

TEST(LogHistogram, MergeMatchesCombined) {
  LogHistogram a{1.0, 1e6, 1.01}, b{1.0, 1e6, 1.01}, all{1.0, 1e6, 1.01};
  Rng rng{3};
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.exponential(100.0) + 0.5;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.p50(), all.p50());
  EXPECT_DOUBLE_EQ(a.p999(), all.p999());
}

TEST(LogHistogram, MergeLayoutMismatchThrows) {
  LogHistogram a{1.0, 1e6, 1.01}, b{1.0, 1e5, 1.01};
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(LogHistogram, QuantileMonotone) {
  LogHistogram h{0.1, 1e9, 1.01};
  Rng rng{4};
  for (int i = 0; i < 20000; ++i) h.add(rng.lognormal(3.0, 1.5));
  double prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LatencyRecorder, SummaryFieldsConsistent) {
  LatencyRecorder rec;
  Rng rng{5};
  for (int i = 0; i < 50000; ++i) rec.add(rng.exponential(200.0) + 1.0);
  const LatencySummary s = rec.summary();
  EXPECT_EQ(s.count, 50000u);
  EXPECT_NEAR(s.mean, 201.0, 3.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max * 1.02);
}

TEST(LatencyRecorder, QuantilesStayWithinTheObservedRange) {
  // A value in the lower half of its bucket: the bucket's midpoint, which
  // the histogram reports as a quantile, lies above it.
  double top = 1000.0;
  for (;; top += 1.0) {
    ASSERT_LT(top, 1100.0);
    LatencyRecorder probe;
    probe.add(top);
    if (probe.histogram().p999() > top + 0.01) break;
  }
  LatencyRecorder rec;
  for (int i = 0; i < 990; ++i) rec.add(10.0);
  for (int i = 0; i < 10; ++i) rec.add(top + 0.001 * i);  // one bucket
  const LatencySummary s = rec.summary();
  ASSERT_GT(rec.histogram().p999(), s.max);  // the raw quantile overshoots
  EXPECT_LE(s.p999, s.max);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.p50, 10.0);  // and never reads below the minimum
}

TEST(LatencyRecorder, EmptySummaryIsZeroed) {
  LatencyRecorder rec;
  const LatencySummary s = rec.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.p999, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(LatencyRecorder, MergeCombines) {
  LatencyRecorder a, b;
  for (int i = 0; i < 100; ++i) a.add(10.0);
  for (int i = 0; i < 100; ++i) b.add(1000.0);
  a.merge(b);
  const LatencySummary s = a.summary();
  EXPECT_EQ(s.count, 200u);
  EXPECT_NEAR(s.mean, 505.0, 1.0);
}

}  // namespace
}  // namespace das
