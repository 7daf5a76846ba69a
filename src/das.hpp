// Umbrella public header for the DAS library.
//
// Typical use:
//
//   #include "das.hpp"
//
//   das::core::ClusterConfig cfg;
//   cfg.policy = das::sched::Policy::kDas;
//   cfg.target_load = 0.7;
//   auto result = das::core::run_experiment(cfg);
//   std::cout << "mean RCT: " << result.rct.mean << " us\n";
//
// Individual module headers remain includable directly for finer control.
#pragma once

#include "common/distributions.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "core/cluster.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/server.hpp"
#include "core/wire.hpp"
#include "net/network.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "store/lsm_model.hpp"
#include "store/partitioner.hpp"
#include "workload/arrival.hpp"
#include "workload/multiget.hpp"
#include "workload/rate_function.hpp"
#include "workload/spec.hpp"
