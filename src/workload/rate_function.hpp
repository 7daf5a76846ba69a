// Deterministic time-varying intensity profiles.
//
// One abstraction serves two roles: modulating open-loop arrival rates
// (time-varying *load*) and modulating server service capacity (time-varying
// *performance*) — the two axes the paper's "adaptive" claim targets. A
// profile is a pure function of simulated time so replays are reproducible;
// stochastic profiles (Markov-modulated) pre-sample their trajectory from a
// seed at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace das::workload {

class RateFunction {
 public:
  virtual ~RateFunction() = default;
  /// Instantaneous multiplier (or absolute rate, caller's convention) at `t`.
  virtual double value_at(SimTime t) const = 0;
  /// Upper bound over all t; thinning samplers need it.
  virtual double max_value() const = 0;
  /// Exact mean of value_at over [0, horizon), horizon > 0.
  virtual double mean_over(SimTime horizon) const = 0;
};

using RatePtr = std::shared_ptr<const RateFunction>;

/// Constant profile.
RatePtr make_constant_rate(double value);

/// base + amplitude * sin(2*pi*t/period). Requires amplitude <= base so the
/// profile stays non-negative.
RatePtr make_sinusoidal_rate(double base, double amplitude, Duration period);

/// Piecewise-constant schedule: value_at(t) is levels[i] for t in
/// [boundaries[i-1], boundaries[i]); the last level extends forever.
RatePtr make_step_rate(std::vector<SimTime> boundaries, std::vector<double> levels);

/// Two-state Markov-modulated profile alternating between `high` and `low`
/// with exponentially distributed dwell times; the trajectory is pre-sampled
/// up to `horizon` from `seed` and holds its last state beyond it.
RatePtr make_markov_two_state(double high, double low, Duration mean_dwell_high,
                              Duration mean_dwell_low, SimTime horizon,
                              std::uint64_t seed);

/// Exact mean of `rate` over [0, horizon) (the value at 0 for an empty
/// horizon). Load calibration averages both the arrival-rate profile and the
/// server-speed profiles through it.
double time_average(const RateFunction& rate, SimTime horizon);

}  // namespace das::workload
