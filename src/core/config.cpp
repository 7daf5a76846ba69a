#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace das::core {

const char* to_string(StoreModel model) {
  switch (model) {
    case StoreModel::kSynthetic: return "synthetic";
    case StoreModel::kLsm: return "lsm";
  }
  return "synthetic";
}

bool store_model_from_string(std::string_view token, StoreModel& out) {
  if (token == "synthetic") {
    out = StoreModel::kSynthetic;
    return true;
  }
  if (token == "lsm") {
    out = StoreModel::kLsm;
    return true;
  }
  return false;
}

void ClusterConfig::validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("ClusterConfig: " + what);
  };
  if (num_servers == 0) reject("num_servers must be >= 1");
  if (num_clients == 0) reject("num_clients must be >= 1");
  if (keys_per_server == 0) reject("keys_per_server must be >= 1");
  // Popularity ranks and the rank -> key table are 32-bit.
  if (keys_per_server > std::numeric_limits<std::uint32_t>::max() / num_servers) {
    reject("num_servers * keys_per_server must fit 32-bit ranks (< 2^32)");
  }
  if (!(std::isfinite(zipf_theta) && zipf_theta >= 0)) {
    reject("zipf_theta must be finite and >= 0");
  }
  if (!(std::isfinite(net_latency_us) && net_latency_us >= 0)) {
    reject("net_latency_us must be finite and >= 0");
  }
  if (!(std::isfinite(per_op_overhead_us) && per_op_overhead_us >= 0)) {
    reject("per_op_overhead_us must be finite and >= 0");
  }
  if (!(std::isfinite(service_bytes_per_us) && service_bytes_per_us > 0)) {
    reject("service_bytes_per_us must be finite and > 0");
  }
  // Loads >= 1 are deliberately representable (E22 drives the cluster past
  // saturation); the upper bound only catches unit mistakes.
  if (!(target_load > 0 && target_load < 10)) {
    reject("target_load must be in (0, 10)");
  }
  if (!(write_fraction >= 0 && write_fraction <= 1)) {
    reject("write_fraction must be in [0, 1]");
  }
  if (!server_speed_factors.empty() && server_speed_factors.size() != num_servers) {
    reject("server_speed_factors must list 0 or num_servers factors");
  }
  for (const double factor : server_speed_factors) {
    if (!(std::isfinite(factor) && factor > 0)) {
      reject("server_speed_factors must be finite and > 0");
    }
  }
  if (speed_profiles.size() > 1 && speed_profiles.size() != num_servers) {
    reject("speed_profiles must list 0, 1 or num_servers profiles");
  }
  for (const auto& [name, value] :
       {std::pair{"retry_timeout_us", retry_timeout_us},
        std::pair{"retry_backoff_max_us", retry_backoff_max_us},
        std::pair{"hedge_delay_us", hedge_delay_us}}) {
    if (!(std::isfinite(value) && value >= 0)) {
      reject(std::string{name} + " must be finite and >= 0");
    }
  }
  if (msg_loss_probability < 0 || msg_loss_probability >= 1) {
    reject("msg_loss_probability must be in [0, 1)");
  }
  if (msg_loss_probability > 0 && retry_timeout_us <= 0) {
    reject(
        "msg_loss_probability > 0 requires retry_timeout_us > 0 — without "
        "retransmission a lost message strands its request forever");
  }
  if (fault_plan.loses_work() && retry_timeout_us <= 0) {
    reject(
        "fault_plan contains a crash/partition/lossburst but retry_timeout_us "
        "== 0 — dropped operations would never be retransmitted and their "
        "requests never finish");
  }
  if (fault_plan.has_unrecovered_failure() && retry_max_attempts == 0) {
    reject(
        "fault_plan leaves a server crashed or a link partitioned at the end "
        "but retry_max_attempts == 0 — unbounded retries against a "
        "permanently dead target never terminate; set retry_max_attempts so "
        "the client can give up and account the request as failed");
  }
  if (hedge_delay_us > 0 && replication < 2) {
    reject(
        "hedge_delay_us > 0 requires replication >= 2 — hedging needs a "
        "second replica to duplicate the read to");
  }
  if (retry_backoff_max_us > 0 && retry_timeout_us <= 0) {
    reject("retry_backoff_max_us is set but retry_timeout_us == 0 disables "
           "retransmission entirely");
  }
  if (retry_backoff_max_us > 0 && retry_backoff_max_us < retry_timeout_us) {
    reject("retry_backoff_max_us must be >= retry_timeout_us (the cap cannot "
           "sit below the base timeout)");
  }
  if (retry_max_attempts > 0 && retry_timeout_us <= 0) {
    reject("retry_max_attempts is set but retry_timeout_us == 0 disables "
           "retransmission entirely");
  }
  if (!fault_plan.empty()) {
    fault_plan.validate(static_cast<std::uint32_t>(num_servers),
                        static_cast<std::uint32_t>(num_clients));
  }
  if (store_model == StoreModel::kLsm) {
    // Re-thrown with the LsmOptions field name in the message.
    lsm.validate();
  }
  overload.validate();
  if (overload.deadlines() && retry_timeout_us > 0 &&
      retry_timeout_us >= overload.deadline_budget_us) {
    reject(
        "retry_timeout_us (" + std::to_string(retry_timeout_us) +
        ") must be < overload.deadline_budget_us (" +
        std::to_string(overload.deadline_budget_us) +
        ") — a request whose first retransmission fires at or after its "
        "end-to-end deadline can never retry before expiring, so the retry "
        "machinery is dead weight that only delays the expiry accounting");
  }
  const std::uint64_t universe = num_servers * keys_per_server;
  if (tenants.size() > universe) {
    reject("tenants: more tenants than keys — every tenant needs a "
           "non-empty keyspace slice");
  }
  // An empty list runs one synthetic default tenant.
  bool any_synthetic = tenants.empty();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const workload::TenantSpec& tenant = tenants[t];
    const std::string where = "tenants[" + std::to_string(t) + "] ('" +
                              tenant.name + "')";
    if (!(tenant.share > 0)) reject(where + ": share must be > 0");
    if (!tenant.replay) any_synthetic = true;
    if (tenant.mix) {
      const workload::OpMix& mix = *tenant.mix;
      const double sum = mix.read + mix.update + mix.rmw;
      if (mix.read < 0 || mix.update < 0 || mix.rmw < 0 ||
          sum < 1.0 - 1e-9 || sum > 1.0 + 1e-9) {
        reject(where + ": mix fractions must be non-negative and sum to 1");
      }
    }
    if (tenant.drift.rotate_period_us < 0) {
      reject(where + ": drift rotate_period_us must be >= 0");
    }
    if (tenant.drift.rotate_period_us > 0 && tenant.drift.rotate_stride < 1) {
      reject(where + ": drift rotate_stride must be >= 1");
    }
    for (const workload::StormWindow& storm : tenant.drift.storms) {
      if (storm.end <= storm.start || storm.start < 0) {
        reject(where + ": storm window must have 0 <= start < end");
      }
      if (storm.share < 0 || storm.share > 1) {
        reject(where + ": storm share must be in [0, 1]");
      }
      if (storm.keys < 1) reject(where + ": storm keys must be >= 1");
    }
    if (tenant.replay && tenant.drift.enabled()) {
      reject(where + ": a replay tenant cannot also configure drift");
    }
    const KeyId max_key = tenant.replay ? tenant.replay->max_key() : 0;
    if (max_key >= universe) {
      reject(where + ": replay trace references key " + std::to_string(max_key) +
             " outside the keyspace of " + std::to_string(universe) + " keys");
    }
  }
  if (!any_synthetic && write_fraction > 0) {
    reject("tenants: write_fraction is set but every tenant replays a "
           "trace — replay operations come verbatim from the file");
  }
}

double ClusterConfig::mean_server_speed(std::size_t s, SimTime horizon) const {
  const double factor = server_speed_factors.empty() ? 1.0 : server_speed_factors[s];
  DAS_CHECK(factor > 0);
  if (speed_profiles.empty()) return factor;
  const workload::RatePtr& profile =
      speed_profiles.size() == 1 ? speed_profiles[0] : speed_profiles[s];
  return profile == nullptr ? factor
                            : factor * workload::time_average(*profile, horizon);
}

double ClusterConfig::nominal_capacity(SimTime horizon) const {
  DAS_CHECK(num_servers >= 1);
  DAS_CHECK(server_speed_factors.empty() ||
            server_speed_factors.size() == num_servers);
  DAS_CHECK(speed_profiles.empty() || speed_profiles.size() == 1 ||
            speed_profiles.size() == num_servers);
  double capacity = 0;
  for (std::size_t s = 0; s < num_servers; ++s) {
    capacity += mean_server_speed(s, horizon);
  }
  return capacity;
}

}  // namespace das::core
