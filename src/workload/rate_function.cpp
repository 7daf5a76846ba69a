#include "workload/rate_function.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace das::workload {

namespace {

class ConstantRate final : public RateFunction {
 public:
  explicit ConstantRate(double v) : v_(v) { DAS_CHECK(v >= 0); }
  double value_at(SimTime) const override { return v_; }
  double max_value() const override { return v_; }
  double mean_over(SimTime) const override { return v_; }

 private:
  double v_;
};

class SinusoidalRate final : public RateFunction {
 public:
  SinusoidalRate(double base, double amplitude, Duration period)
      : base_(base), amp_(amplitude), period_(period) {
    DAS_CHECK(base >= 0);
    DAS_CHECK(amplitude >= 0);
    DAS_CHECK_MSG(amplitude <= base, "sinusoid would go negative");
    DAS_CHECK(period > 0);
  }
  double value_at(SimTime t) const override {
    return base_ + amp_ * std::sin(2.0 * std::numbers::pi * t / period_);
  }
  double max_value() const override { return base_ + amp_; }
  double mean_over(SimTime horizon) const override {
    // The sine's integral over [0, h) is P/(2π) · (1 − cos(2πh/P)).
    const double turns = 2.0 * std::numbers::pi * horizon / period_;
    return base_ + amp_ * (1.0 - std::cos(turns)) / turns;
  }

 private:
  double base_, amp_;
  Duration period_;
};

class StepRate final : public RateFunction {
 public:
  StepRate(std::vector<SimTime> boundaries, std::vector<double> levels)
      : boundaries_(std::move(boundaries)), levels_(std::move(levels)) {
    DAS_CHECK(!levels_.empty());
    DAS_CHECK(boundaries_.size() == levels_.size() - 1);
    DAS_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()));
    for (double v : levels_) DAS_CHECK(v >= 0);
  }
  double value_at(SimTime t) const override {
    const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), t);
    return levels_[static_cast<std::size_t>(it - boundaries_.begin())];
  }
  double max_value() const override {
    return *std::max_element(levels_.begin(), levels_.end());
  }
  double mean_over(SimTime horizon) const override {
    // Level i holds on [boundaries[i-1], boundaries[i]): sum each segment's
    // level × its overlap with [0, horizon).
    double area = 0;
    SimTime from = 0;
    for (std::size_t i = 0; i < boundaries_.size() && from < horizon; ++i) {
      const SimTime to = std::min(boundaries_[i], horizon);
      if (to <= from) continue;
      area += levels_[i] * (to - from);
      from = to;
    }
    if (from < horizon) area += levels_.back() * (horizon - from);
    return area / horizon;
  }

 private:
  std::vector<SimTime> boundaries_;
  std::vector<double> levels_;
};

}  // namespace

RatePtr make_constant_rate(double value) { return std::make_shared<ConstantRate>(value); }

RatePtr make_sinusoidal_rate(double base, double amplitude, Duration period) {
  return std::make_shared<SinusoidalRate>(base, amplitude, period);
}

RatePtr make_step_rate(std::vector<SimTime> boundaries, std::vector<double> levels) {
  return std::make_shared<StepRate>(std::move(boundaries), std::move(levels));
}

RatePtr make_markov_two_state(double high, double low, Duration mean_dwell_high,
                              Duration mean_dwell_low, SimTime horizon,
                              std::uint64_t seed) {
  DAS_CHECK(high >= low);
  DAS_CHECK(low >= 0);
  DAS_CHECK(mean_dwell_high > 0);
  DAS_CHECK(mean_dwell_low > 0);
  DAS_CHECK(horizon > 0);
  // Pre-sample alternating dwell intervals into a step schedule.
  Rng rng{seed};
  std::vector<SimTime> boundaries;
  std::vector<double> levels;
  bool in_high = true;
  SimTime t = 0;
  levels.push_back(high);
  while (t < horizon) {
    t += rng.exponential(in_high ? mean_dwell_high : mean_dwell_low);
    in_high = !in_high;
    boundaries.push_back(t);
    levels.push_back(in_high ? high : low);
  }
  return make_step_rate(std::move(boundaries), std::move(levels));
}

double time_average(const RateFunction& rate, SimTime horizon) {
  return horizon > 0 ? rate.mean_over(horizon) : rate.value_at(0);
}

}  // namespace das::workload
