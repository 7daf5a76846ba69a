// Experiment harness: single runs and paired policy comparisons.
//
// compare_policies() runs the *same* seed (hence the same request stream,
// key sizes and speed fluctuations) under each policy — the differences in
// the summaries are purely scheduling, which is what the paper's figures
// plot.
#pragma once

#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"

namespace das::core {

/// Builds a cluster from `config`, runs it, returns the aggregate result.
/// A non-null `tracer` records the full op lifecycle (purely observational —
/// the result is bit-identical with and without it).
ExperimentResult run_experiment(const ClusterConfig& config,
                                const RunWindow& window = {},
                                trace::Tracer* tracer = nullptr);

struct PolicyRun {
  sched::Policy policy;
  ExperimentResult result;
};

/// Runs `base` under each policy with identical workload randomness.
std::vector<PolicyRun> compare_policies(ClusterConfig base,
                                        const std::vector<sched::Policy>& policies,
                                        const RunWindow& window = {});

}  // namespace das::core
