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

 private:
  double rate_;
};

class ModulatedPoisson final : public ArrivalProcess {
 public:
  ModulatedPoisson(double base_rate, RatePtr modulation)
      : base_(base_rate), mod_(std::move(modulation)) {
    DAS_CHECK(base_rate > 0);
    DAS_CHECK(mod_ != nullptr);
    max_rate_ = base_ * mod_->max_value();
    DAS_CHECK_MSG(max_rate_ > 0, "modulation must be positive somewhere");
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

 private:
  double base_;
  RatePtr mod_;
  double max_rate_ = 0;
};

}  // namespace

ArrivalPtr make_poisson_arrivals(double rate) {
  return std::make_shared<PoissonArrivals>(rate);
}

ArrivalPtr make_modulated_poisson(double base_rate, RatePtr modulation) {
  return std::make_shared<ModulatedPoisson>(base_rate, std::move(modulation));
}

}  // namespace das::workload
