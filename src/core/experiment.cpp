#include "core/experiment.hpp"

namespace das::core {

ExperimentResult run_experiment(const ClusterConfig& config, const RunWindow& window,
                                trace::Tracer* tracer) {
  Cluster cluster{config, window, tracer};
  return cluster.run();
}

std::vector<PolicyRun> compare_policies(ClusterConfig base,
                                        const std::vector<sched::Policy>& policies,
                                        const RunWindow& window) {
  std::vector<PolicyRun> runs;
  runs.reserve(policies.size());
  for (const sched::Policy policy : policies) {
    base.policy = policy;
    runs.emplace_back(policy, run_experiment(base, window));
  }
  return runs;
}

}  // namespace das::core
