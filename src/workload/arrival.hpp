// Open-loop arrival processes.
//
// Requests arrive independently of completions (open loop), the standard
// methodology for latency-under-load studies: a closed loop would let a slow
// scheduler throttle its own offered load and hide queueing pathologies.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/rate_function.hpp"

namespace das::workload {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Time of the next arrival strictly after `now`. Monotone in `now`.
  virtual SimTime next_arrival_after(SimTime now, Rng& rng) const = 0;
};

using ArrivalPtr = std::shared_ptr<const ArrivalProcess>;

/// Homogeneous Poisson process with `rate` arrivals per microsecond.
ArrivalPtr make_poisson_arrivals(double rate);

/// Non-homogeneous Poisson process whose instantaneous rate is
/// `base_rate * modulation(t)`; sampled exactly by Lewis-Shedler thinning.
ArrivalPtr make_modulated_poisson(double base_rate, RatePtr modulation);

}  // namespace das::workload
