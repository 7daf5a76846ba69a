#include "workload/arrival.hpp"

#include "common/check.hpp"

namespace das::workload {

namespace {

class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate) : rate_(rate) { DAS_CHECK(rate > 0); }
  SimTime next_arrival_after(SimTime now, Rng& rng) const override {
    return now + rng.exponential(1.0 / rate_);
  }
  double mean_rate() const override { return rate_; }

 private:
  double rate_;
};

class DeterministicArrivals final : public ArrivalProcess {
 public:
  explicit DeterministicArrivals(double rate) : rate_(rate) { DAS_CHECK(rate > 0); }
  SimTime next_arrival_after(SimTime now, Rng&) const override {
    return now + 1.0 / rate_;
  }
  double mean_rate() const override { return rate_; }

 private:
  double rate_;
};

class ModulatedPoisson final : public ArrivalProcess {
 public:
  ModulatedPoisson(double base_rate, RatePtr modulation, SimTime horizon)
      : base_(base_rate), mod_(std::move(modulation)) {
    DAS_CHECK(base_rate > 0);
    DAS_CHECK(mod_ != nullptr);
    DAS_CHECK(horizon > 0);
    max_rate_ = base_ * mod_->max_value();
    DAS_CHECK_MSG(max_rate_ > 0, "modulation must be positive somewhere");
    // Numerical long-run average of the modulation.
    const Duration step = kMillisecond;
    double acc = 0;
    std::size_t n = 0;
    for (SimTime t = 0; t < horizon; t += step, ++n) acc += mod_->value_at(t);
    mean_rate_ = base_ * (n ? acc / static_cast<double>(n) : mod_->value_at(0));
  }

  SimTime next_arrival_after(SimTime now, Rng& rng) const override {
    // Lewis-Shedler thinning: candidate points at the max rate, accepted with
    // probability rate(t)/max_rate.
    SimTime t = now;
    for (;;) {
      t += rng.exponential(1.0 / max_rate_);
      const double accept = base_ * mod_->value_at(t) / max_rate_;
      if (rng.chance(accept)) return t;
    }
  }
  double mean_rate() const override { return mean_rate_; }

 private:
  double base_;
  RatePtr mod_;
  double max_rate_ = 0;
  double mean_rate_ = 0;
};

}  // namespace

ArrivalPtr make_poisson_arrivals(double rate) {
  return std::make_shared<PoissonArrivals>(rate);
}

ArrivalPtr make_deterministic_arrivals(double rate) {
  return std::make_shared<DeterministicArrivals>(rate);
}

ArrivalPtr make_modulated_poisson(double base_rate, RatePtr modulation,
                                  SimTime averaging_horizon) {
  return std::make_shared<ModulatedPoisson>(base_rate, std::move(modulation),
                                            averaging_horizon);
}

}  // namespace das::workload
