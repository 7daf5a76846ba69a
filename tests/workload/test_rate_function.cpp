#include "workload/rate_function.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace das::workload {
namespace {

TEST(ConstantRate, IsFlat) {
  auto r = make_constant_rate(3.5);
  EXPECT_DOUBLE_EQ(r->value_at(0), 3.5);
  EXPECT_DOUBLE_EQ(r->value_at(1e9), 3.5);
  EXPECT_DOUBLE_EQ(r->max_value(), 3.5);
}

TEST(SinusoidalRate, OscillatesWithinBounds) {
  auto r = make_sinusoidal_rate(10.0, 4.0, 1000.0);
  for (SimTime t = 0; t < 5000; t += 7) {
    const double v = r->value_at(t);
    ASSERT_GE(v, 6.0 - 1e-9);
    ASSERT_LE(v, 14.0 + 1e-9);
  }
  EXPECT_DOUBLE_EQ(r->max_value(), 14.0);
}

TEST(SinusoidalRate, PeriodIsRespected) {
  auto r = make_sinusoidal_rate(10.0, 4.0, 1000.0);
  EXPECT_NEAR(r->value_at(123.0), r->value_at(1123.0), 1e-9);
  EXPECT_NEAR(r->value_at(250.0), 14.0, 1e-9);  // quarter period = peak
}

TEST(SinusoidalRate, RejectsNegativeExcursion) {
  EXPECT_THROW(make_sinusoidal_rate(2.0, 3.0, 100.0), std::logic_error);
}

TEST(StepRate, SelectsCorrectLevel) {
  auto r = make_step_rate({100.0, 200.0}, {1.0, 5.0, 2.0});
  EXPECT_DOUBLE_EQ(r->value_at(0), 1.0);
  EXPECT_DOUBLE_EQ(r->value_at(99.9), 1.0);
  EXPECT_DOUBLE_EQ(r->value_at(100.0), 5.0);
  EXPECT_DOUBLE_EQ(r->value_at(150.0), 5.0);
  EXPECT_DOUBLE_EQ(r->value_at(200.0), 2.0);
  EXPECT_DOUBLE_EQ(r->value_at(1e12), 2.0);
  EXPECT_DOUBLE_EQ(r->max_value(), 5.0);
}

TEST(StepRate, RejectsMismatchedSizes) {
  EXPECT_THROW(make_step_rate({1.0}, {1.0}), std::logic_error);
  EXPECT_THROW(make_step_rate({2.0, 1.0}, {1.0, 2.0, 3.0}), std::logic_error);
}

TEST(TimeAverage, SamplesEachMillisecondOfTheHorizon) {
  // 1 over the first 10 ms, 4 after it.
  auto r = make_step_rate({10.0 * kMillisecond}, {1.0, 4.0});
  EXPECT_DOUBLE_EQ(time_average(*r, 20.0 * kMillisecond), 2.5);
  EXPECT_DOUBLE_EQ(time_average(*r, 40.0 * kMillisecond), 3.25);
  // An empty horizon reads the value at 0.
  EXPECT_DOUBLE_EQ(time_average(*r, 0), 1.0);
}

TEST(MarkovTwoState, ValuesAreOnlyHighOrLow) {
  auto r = make_markov_two_state(2.0, 0.5, 1000.0, 500.0, 100000.0, 42);
  for (SimTime t = 0; t < 100000.0; t += 37.0) {
    const double v = r->value_at(t);
    ASSERT_TRUE(v == 2.0 || v == 0.5) << v;
  }
}

TEST(MarkovTwoState, StartsHighAndSwitches) {
  auto r = make_markov_two_state(2.0, 0.5, 500.0, 500.0, 50000.0, 7);
  EXPECT_DOUBLE_EQ(r->value_at(0), 2.0);
  bool saw_low = false;
  for (SimTime t = 0; t < 50000.0; t += 11.0) saw_low |= r->value_at(t) == 0.5;
  EXPECT_TRUE(saw_low);
}

TEST(MarkovTwoState, DeterministicInSeed) {
  auto a = make_markov_two_state(2.0, 0.5, 300.0, 300.0, 20000.0, 9);
  auto b = make_markov_two_state(2.0, 0.5, 300.0, 300.0, 20000.0, 9);
  for (SimTime t = 0; t < 20000.0; t += 13.0)
    ASSERT_DOUBLE_EQ(a->value_at(t), b->value_at(t));
}

TEST(MarkovTwoState, DwellTimesAverageOut) {
  // With equal dwell means the long-run average is the midpoint.
  auto r = make_markov_two_state(2.0, 1.0, 200.0, 200.0, 2e6, 11);
  double acc = 0;
  std::size_t n = 0;
  for (SimTime t = 0; t < 2e6; t += 10.0, ++n) acc += r->value_at(t);
  EXPECT_NEAR(acc / static_cast<double>(n), 1.5, 0.08);
}

TEST(MarkovTwoState, MaxValueIsHigh) {
  auto r = make_markov_two_state(3.0, 1.0, 100.0, 100.0, 1000.0, 1);
  EXPECT_DOUBLE_EQ(r->max_value(), 3.0);
}

}  // namespace
}  // namespace das::workload
