#include "workloads.hpp"

#include <limits>

#include "common/rng.hpp"

namespace perfbench {

using das::core::ClusterConfig;
using das::core::LoadCalibration;

bool make_workload(const std::string& name, std::uint64_t seed, Workload& out) {
  // Shared by all three: open-loop Poisson arrivals, uniform key popularity,
  // geometric fan-out (mean 8), 5 us network, average-capacity calibration,
  // and the default 50 ms warmup + 300 ms measure window. Overload control,
  // faults and tracing stay off.
  ClusterConfig cfg;
  cfg.zipf_theta = 0.0;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  // Keep every request's RCT so the reported quantiles are exact: the
  // metrics histogram's 1% buckets make a p50 read the same across seeds.
  cfg.breakdown_retain_requests = std::numeric_limits<std::size_t>::max();
  // One 300 ms window of the 64-server workloads gives a p99 RCT that moves
  // by ~20% between seeds; averaging eight experiments brings that to ~5%.
  // The counts keep the fixed part of a run within ~35 s on a loaded host.
  std::size_t experiments = 8;
  if (name == "paper-das") {
    // The paper's headline setting: the event heap, progress messages and
    // DAS deferral do almost all the work; set-up is trivial.
    cfg.num_servers = 64;
    cfg.keys_per_server = 2'000;
    cfg.target_load = 0.8;
    cfg.policy = das::sched::Policy::kDas;
  } else if (name == "scale-256") {
    // 2.56M keys: construction, the store and memory dominate. FCFS sends no
    // progress messages and defers nothing.
    cfg.num_servers = 256;
    cfg.num_clients = 32;
    cfg.keys_per_server = 10'000;
    cfg.target_load = 0.8;
    cfg.policy = das::sched::Policy::kFcfs;
    experiments = 2;
  } else if (name == "writes-lsm") {
    // Replicated write-all PUTs on the LSM store model with c3 selection:
    // the write path, the store model and the select layer.
    cfg.num_servers = 64;
    cfg.keys_per_server = 2'000;
    cfg.replication = 3;
    cfg.replica_selection = das::select::Mode::kC3;
    cfg.write_fraction = 0.3;
    cfg.store_model = das::core::StoreModel::kLsm;
    cfg.target_load = 0.7;
    cfg.policy = das::sched::Policy::kDas;
  } else {
    return false;
  }
  out.name = name;
  out.experiments.clear();
  for (std::size_t k = 0; k < experiments; ++k) {
    cfg.seed = das::Rng{seed}.fork(k).next_u64();
    out.experiments.push_back(cfg);
  }
  out.window = das::core::RunWindow{};
  return true;
}

}  // namespace perfbench
