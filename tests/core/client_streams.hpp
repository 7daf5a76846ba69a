// The traffic of a bare Client in unit tests: one synthetic tenant whose
// requests arrive exactly one millisecond apart, so send instants are exact.
#pragma once

#include <memory>
#include <vector>

#include "core/client.hpp"

namespace das::core {

/// Arrivals every millisecond, on the millisecond.
struct EveryMillisecond final : workload::ArrivalProcess {
  SimTime next_arrival_after(SimTime now, Rng&) const override {
    return now + kMillisecond;
  }
};

/// A single synthetic tenant: `generator`, one request per millisecond.
inline std::vector<Client::TenantStream> one_stream(
    const workload::MultigetGenerator& generator) {
  std::vector<Client::TenantStream> streams(1);
  streams[0].generator = &generator;
  streams[0].arrivals = std::make_shared<EveryMillisecond>();
  return streams;
}

}  // namespace das::core
