#include "overload/overload.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace das::overload {

const char* to_string(RejectPolicy policy) {
  switch (policy) {
    case RejectPolicy::kRejectNew:
      return "reject-new";
    case RejectPolicy::kSojournDrop:
      return "sojourn-drop";
  }
  DAS_CHECK_MSG(false, "unknown RejectPolicy");
  return "";
}

bool policy_from_string(std::string_view token, RejectPolicy& out) {
  if (token == "reject-new") {
    out = RejectPolicy::kRejectNew;
    return true;
  }
  if (token == "sojourn-drop") {
    out = RejectPolicy::kSojournDrop;
    return true;
  }
  return false;
}

Duration OverloadConfig::effective_sojourn_us() const {
  if (sojourn_threshold_us > 0) return sojourn_threshold_us;
  if (deadlines()) return 2.0 * deadline_budget_us;
  return 10.0 * kMillisecond;
}

void OverloadConfig::validate() const {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument("OverloadConfig: " + what);
  };
  if (!(sojourn_threshold_us >= 0 && std::isfinite(sojourn_threshold_us)))
    reject("sojourn_threshold_us must be finite and >= 0 (got " +
           std::to_string(sojourn_threshold_us) + ")");
  if (!(deadline_budget_us >= 0 && std::isfinite(deadline_budget_us)))
    reject("deadline_budget_us must be finite and >= 0 (got " +
           std::to_string(deadline_budget_us) + ")");
}

void QueueGuard::check_invariants() const {
  // Counters only accumulate under the feature that owns them: a violation
  // means a shed path ran with its gate off (or double-counted).
  if (!config_.bounded())
    DAS_AUDIT(rejected_busy_ == 0 && dropped_sojourn_ == 0,
              "QueueGuard: BUSY counters nonzero with unbounded queue");
  if (config_.reject_policy != RejectPolicy::kSojournDrop)
    DAS_AUDIT(dropped_sojourn_ == 0,
              "QueueGuard: sojourn drops under reject-new policy");
  if (!config_.deadlines())
    DAS_AUDIT(expired_ == 0,
              "QueueGuard: expiry drops with deadlines disabled");
  DAS_AUDIT(total_shed() >= rejected_busy_,
            "QueueGuard: shed counter overflow");
}

AdmissionController::AdmissionController(std::size_t tenant_count)
    : rate_(tenant_count == 0 ? 1 : tenant_count, 1.0) {}

bool AdmissionController::admit(std::size_t tenant, Rng& rng) {
  DAS_CHECK(tenant < rate_.size());
  // Exactly one draw per call regardless of the rate, so the stream's
  // position depends on the number of admits, never on the AIMD state.
  const bool ok = rng.chance(rate_[tenant]);
  if (ok)
    ++admitted_;
  else
    ++refused_;
  return ok;
}

void AdmissionController::on_success(std::size_t tenant) {
  DAS_CHECK(tenant < rate_.size());
  double& r = rate_[tenant];
  r = r + kIncrease > 1.0 ? 1.0 : r + kIncrease;
}

void AdmissionController::on_overload(std::size_t tenant) {
  DAS_CHECK(tenant < rate_.size());
  double& r = rate_[tenant];
  r = r * kDecrease < kFloor ? kFloor : r * kDecrease;
}

void AdmissionController::check_invariants() const {
  for (std::size_t t = 0; t < rate_.size(); ++t)
    DAS_AUDIT(rate_[t] >= kFloor && rate_[t] <= 1.0,
              "AdmissionController: rate outside [floor, 1] for tenant " +
                  std::to_string(t));
}

}  // namespace das::overload
