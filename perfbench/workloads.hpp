// The benchmark's named workloads. Each is a fixed set of whole experiments:
// one ClusterConfig per experiment, all alike but for their seeds, plus the
// run window. The benchmark seed picks the experiment seeds; the simulator
// receives nothing but the resulting configs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// One config per experiment. The simulated metrics pool all of them, so
  /// the count is fixed per workload, never derived from host speed.
  std::vector<das::core::ClusterConfig> experiments;
  das::core::RunWindow window;
};

/// Builds workload `name` for benchmark seed `seed`; returns false for an
/// unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload& out);

}  // namespace perfbench
