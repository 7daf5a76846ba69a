#include "workload/arrival.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace das::workload {
namespace {

TEST(PoissonArrivals, MeanInterarrivalMatchesRate) {
  auto a = make_poisson_arrivals(0.1);  // every 10us on average
  Rng rng{1};
  SimTime t = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) t = a->next_arrival_after(t, rng);
  EXPECT_NEAR(t / n, 10.0, 0.15);
}

TEST(PoissonArrivals, StrictlyIncreasing) {
  auto a = make_poisson_arrivals(1.0);
  Rng rng{2};
  SimTime t = 0;
  for (int i = 0; i < 10000; ++i) {
    const SimTime next = a->next_arrival_after(t, rng);
    ASSERT_GT(next, t);
    t = next;
  }
}

TEST(ModulatedPoisson, ConstantModulationMatchesPlainPoisson) {
  auto a = make_modulated_poisson(0.05, make_constant_rate(1.0));
  Rng rng{4};
  SimTime t = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) t = a->next_arrival_after(t, rng);
  EXPECT_NEAR(t / n, 20.0, 0.4);
}

TEST(ModulatedPoisson, SinusoidDensityTracksRate) {
  // Count arrivals near the peak vs near the trough of the sinusoid.
  const Duration period = 100000.0;
  auto a = make_modulated_poisson(0.02, make_sinusoidal_rate(1.0, 0.8, period));
  Rng rng{5};
  SimTime t = 0;
  int peak = 0, trough = 0;
  while (t < 50 * period) {
    t = a->next_arrival_after(t, rng);
    const double phase = std::fmod(t, period) / period;
    if (phase > 0.15 && phase < 0.35) ++peak;       // around sin max
    if (phase > 0.65 && phase < 0.85) ++trough;     // around sin min
  }
  EXPECT_GT(peak, trough * 3);  // 1.8 vs 0.2 instantaneous rate => ~9x
}

TEST(ModulatedPoisson, MeanRateAveragesModulation) {
  // Over [0, 1 s) the long-run rate is the base rate times the modulation's
  // time average: 0.01 × 1.5 arrivals/us, 15000 expected (sd ~122).
  const RatePtr step = make_step_rate({500000.0}, {2.0, 1.0});
  auto a = make_modulated_poisson(0.01, step);
  Rng rng{6};
  int arrivals = 0;
  for (SimTime t = a->next_arrival_after(0, rng); t < 1e6;
       t = a->next_arrival_after(t, rng))
    ++arrivals;
  EXPECT_EQ(time_average(*step, 1e6), 1.5);
  EXPECT_NEAR(arrivals, 0.01 * 1.5 * 1e6, 500);
}

TEST(ArrivalProcesses, RejectNonPositiveRate) {
  EXPECT_THROW(make_poisson_arrivals(0.0), std::logic_error);
  EXPECT_THROW(make_poisson_arrivals(-1.0), std::logic_error);
  EXPECT_THROW(make_modulated_poisson(0.0, make_constant_rate(1.0)),
               std::logic_error);
}

}  // namespace
}  // namespace das::workload
