#include "common/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace das {
namespace {

double empirical_mean_real(const RealDistribution& d, int n, std::uint64_t seed) {
  Rng rng{seed};
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  return sum / n;
}

double empirical_mean_int(const IntDistribution& d, int n, std::uint64_t seed) {
  Rng rng{seed};
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  return sum / n;
}

TEST(Constant, SamplesEqualValueAndMean) {
  auto d = make_constant(42.5);
  Rng rng{1};
  EXPECT_DOUBLE_EQ(d->sample(rng), 42.5);
  EXPECT_DOUBLE_EQ(d->mean(), 42.5);
}

TEST(UniformReal, MeanMatchesAnalytic) {
  auto d = make_uniform_real(10.0, 30.0);
  EXPECT_DOUBLE_EQ(d->mean(), 20.0);
  EXPECT_NEAR(empirical_mean_real(*d, 100000, 2), 20.0, 0.2);
}

TEST(Exponential, MeanMatchesAnalytic) {
  auto d = make_exponential(7.5);
  EXPECT_DOUBLE_EQ(d->mean(), 7.5);
  EXPECT_NEAR(empirical_mean_real(*d, 200000, 3), 7.5, 0.15);
}

TEST(LognormalMean, EmpiricalMeanMatchesTarget) {
  auto d = make_lognormal_mean(100.0, 1.0);
  EXPECT_DOUBLE_EQ(d->mean(), 100.0);
  EXPECT_NEAR(empirical_mean_real(*d, 400000, 4), 100.0, 3.0);
}

TEST(GeneralizedPareto, CapIsRespected) {
  auto d = make_generalized_pareto(1.0, 250.0, 0.35, 4096.0);
  Rng rng{5};
  for (int i = 0; i < 100000; ++i) {
    const double x = d->sample(rng);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 4096.0);
  }
}

TEST(GeneralizedPareto, TruncatedMeanMatchesEmpirical) {
  auto d = make_generalized_pareto(1.0, 250.0, 0.35, 65536.0);
  EXPECT_NEAR(empirical_mean_real(*d, 500000, 6), d->mean(), d->mean() * 0.03);
}

TEST(GeneralizedPareto, HeavierShapeRaisesMean) {
  auto light = make_generalized_pareto(1.0, 250.0, 0.2, 65536.0);
  auto heavy = make_generalized_pareto(1.0, 250.0, 0.5, 65536.0);
  EXPECT_GT(heavy->mean(), light->mean());
}

TEST(FixedInt, AlwaysK) {
  auto d = make_fixed_int(9);
  Rng rng{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d->sample(rng), 9u);
  EXPECT_DOUBLE_EQ(d->mean(), 9.0);
}

TEST(FixedInt, RejectsZero) { EXPECT_THROW(make_fixed_int(0), std::logic_error); }

TEST(UniformInt, InclusiveBounds) {
  auto d = make_uniform_int(3, 6);
  Rng rng{8};
  std::map<std::uint32_t, int> seen;
  for (int i = 0; i < 40000; ++i) ++seen[d->sample(rng)];
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(3));
  EXPECT_TRUE(seen.count(6));
  EXPECT_DOUBLE_EQ(d->mean(), 4.5);
}

TEST(Geometric, MeanMatchesTruncatedAnalytic) {
  auto d = make_geometric(0.25, 1000);
  // Near-untruncated: mean ~= 1/p.
  EXPECT_NEAR(d->mean(), 4.0, 0.01);
  EXPECT_NEAR(empirical_mean_int(*d, 200000, 9), 4.0, 0.05);
}

TEST(Geometric, CapIsRespected) {
  auto d = make_geometric(0.05, 10);
  Rng rng{10};
  for (int i = 0; i < 50000; ++i) {
    const auto x = d->sample(rng);
    ASSERT_GE(x, 1u);
    ASSERT_LE(x, 10u);
  }
  EXPECT_NEAR(empirical_mean_int(*d, 200000, 11), d->mean(), 0.05);
}

TEST(Geometric, PEqualOneIsAlwaysOne) {
  auto d = make_geometric(1.0, 100);
  Rng rng{12};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d->sample(rng), 1u);
  EXPECT_DOUBLE_EQ(d->mean(), 1.0);
}

TEST(ZipfInt, RangeAndSkew) {
  auto d = make_zipf_int(100, 1.0);
  Rng rng{13};
  std::map<std::uint32_t, int> seen;
  for (int i = 0; i < 100000; ++i) {
    const auto x = d->sample(rng);
    ASSERT_GE(x, 1u);
    ASSERT_LE(x, 100u);
    ++seen[x];
  }
  EXPECT_GT(seen[1], seen[10] * 5);  // strong head
  EXPECT_NEAR(empirical_mean_int(*d, 200000, 14), d->mean(), d->mean() * 0.03);
}

TEST(Bimodal, OnlyTwoValues) {
  auto d = make_bimodal(2, 40, 0.1);
  Rng rng{15};
  int large = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto x = d->sample(rng);
    ASSERT_TRUE(x == 2 || x == 40);
    large += x == 40;
  }
  EXPECT_NEAR(static_cast<double>(large) / n, 0.1, 0.01);
  EXPECT_DOUBLE_EQ(d->mean(), 0.9 * 2 + 0.1 * 40);
}

TEST(BimodalReal, OnlyTwoValuesAndExactMean) {
  auto d = make_bimodal_real(100.0, 4096.0, 0.25);
  Rng rng{17};
  int large = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = d->sample(rng);
    ASSERT_TRUE(x == 100.0 || x == 4096.0);
    large += x == 4096.0;
  }
  EXPECT_NEAR(static_cast<double>(large) / n, 0.25, 0.01);
  EXPECT_DOUBLE_EQ(d->mean(), 0.25 * 4096.0 + 0.75 * 100.0);
  EXPECT_THROW(make_bimodal_real(0.0, 10.0, 0.5), std::logic_error);
  EXPECT_THROW(make_bimodal_real(10.0, 5.0, 0.5), std::logic_error);
}

TEST(Discrete, RespectsWeights) {
  auto d = make_discrete({1, 5, 10}, {1.0, 2.0, 1.0});
  Rng rng{16};
  std::map<std::uint32_t, int> seen;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++seen[d->sample(rng)];
  EXPECT_NEAR(static_cast<double>(seen[5]) / n, 0.5, 0.01);
  EXPECT_DOUBLE_EQ(d->mean(), (1 + 2 * 5 + 10) / 4.0);
}

TEST(Discrete, RejectsMismatchedSizes) {
  EXPECT_THROW(make_discrete({1, 2}, {1.0}), std::logic_error);
}

TEST(Discrete, RejectsZeroTotalWeight) {
  EXPECT_THROW(make_discrete({1, 2}, {0.0, 0.0}), std::logic_error);
}

TEST(ZipfGenerator, PmfSumsToOne) {
  ZipfGenerator gen{1000, 0.99};
  double sum = 0;
  for (std::uint64_t r = 0; r < 1000; ++r) sum += gen.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfGenerator, PmfIsMonotoneDecreasing) {
  ZipfGenerator gen{1000, 0.8};
  for (std::uint64_t r = 1; r < 1000; ++r) ASSERT_LT(gen.pmf(r), gen.pmf(r - 1));
}

TEST(ZipfGenerator, ThetaZeroIsUniform) {
  ZipfGenerator gen{50, 0.0};
  for (std::uint64_t r = 0; r < 50; ++r) EXPECT_NEAR(gen.pmf(r), 0.02, 1e-12);
}

TEST(ZipfGenerator, EmpiricalHeadMatchesPmf) {
  ZipfGenerator gen{1000, 0.99};
  Rng rng{17};
  int rank0 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) rank0 += gen.sample(rng) == 0;
  EXPECT_NEAR(static_cast<double>(rank0) / n, gen.pmf(0), 0.005);
}

TEST(ZipfGenerator, SamplesInRange) {
  ZipfGenerator gen{10, 1.2};
  Rng rng{18};
  for (int i = 0; i < 10000; ++i) ASSERT_LT(gen.sample(rng), 10u);
}

TEST(ZipfGenerator, SingletonUniverse) {
  ZipfGenerator gen{1, 0.99};
  Rng rng{19};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(gen.pmf(0), 1.0);
}

// Property sweep: every integer family's analytic mean matches Monte Carlo.
struct IntDistCase {
  const char* name;
  IntDistPtr dist;
};

// Prints the family name, so the test's listed name does not carry the
// (address-randomised) pointer values gtest would print by default.
void PrintTo(const IntDistCase& c, std::ostream* os) { *os << c.name; }

class IntDistMeanProperty : public ::testing::TestWithParam<IntDistCase> {};

TEST_P(IntDistMeanProperty, AnalyticMeanMatchesEmpirical) {
  const auto& [name, dist] = GetParam();
  SCOPED_TRACE(name);
  const double emp = empirical_mean_int(*dist, 400000, 0xBEEF);
  EXPECT_NEAR(emp, dist->mean(), std::max(0.02 * dist->mean(), 0.02));
}

INSTANTIATE_TEST_SUITE_P(
    Families, IntDistMeanProperty,
    ::testing::Values(IntDistCase{"fixed", make_fixed_int(4)},
                      IntDistCase{"uniform", make_uniform_int(1, 31)},
                      IntDistCase{"geometric", make_geometric(0.125, 128)},
                      IntDistCase{"zipf", make_zipf_int(64, 1.1)},
                      IntDistCase{"bimodal", make_bimodal(2, 64, 0.05)},
                      IntDistCase{"discrete", make_discrete({1, 8, 32}, {4, 2, 1})}));

}  // namespace
}  // namespace das
