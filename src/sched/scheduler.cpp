#include "sched/scheduler.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "sched/basic_policies.hpp"
#include "sched/das.hpp"
#include "sched/rein.hpp"

namespace das::sched {

void Scheduler::on_request_progress(RequestId, const ProgressUpdate&, SimTime) {}
void Scheduler::on_speed_estimate(double) {}
bool Scheduler::preempts(const OpContext&, const OpContext&) const { return false; }

namespace {

using DasOptions = DasScheduler::Options;

template <typename S>
SchedulerPtr build(const SchedulerConfig&) {
  return std::make_unique<S>();
}

SchedulerPtr build_random(const SchedulerConfig& config) {
  return std::make_unique<RandomScheduler>(config.seed);
}

SchedulerPtr build_rein(const SchedulerConfig& config) {
  ReinSbfScheduler::Options opt;
  opt.max_wait_us = config.max_wait_us;
  return std::make_unique<ReinSbfScheduler>(opt);
}

/// DAS in the paper configuration with the option set `Ablate` applied.
template <void (*Ablate)(DasOptions&)>
SchedulerPtr build_das(const SchedulerConfig& config) {
  DasOptions opt;
  opt.max_wait_us = config.max_wait_us;
  Ablate(opt);
  return std::make_unique<DasScheduler>(opt);
}

void paper(DasOptions&) {}
void no_adapt(DasOptions& opt) { opt.adaptive = false; }
void no_defer(DasOptions& opt) { opt.defer = false; }
void no_aging(DasOptions& opt) { opt.max_wait_us = kTimeInfinity; }
void critical_path(DasOptions& opt) {
  opt.primary_key = DasScheduler::PrimaryKey::kCriticalPath;
}
/// Request-level SRPT, the strongest request-aware baseline: DAS's
/// SRPT-first half alone.
void srpt_first(DasOptions& opt) {
  no_defer(opt);
  no_aging(opt);
}

/// A policy's name, construction, progress use and client learning, each
/// stated once.
struct PolicyInfo {
  Policy policy;
  const char* name;
  bool progress;  // see uses_progress()
  bool learns;    // see learns_estimates()
  SchedulerPtr (*build)(const SchedulerConfig& config);
};

/// One row per policy, in presentation order.
constexpr PolicyInfo kPolicies[] = {
    {Policy::kFcfs, "fcfs", false, true, build<FcfsScheduler>},
    {Policy::kRandom, "random", false, true, build_random},
    {Policy::kSjf, "sjf", false, true, build<SjfScheduler>},
    {Policy::kReqSrpt, "req-srpt", true, true, build_das<srpt_first>},
    {Policy::kEdf, "edf", false, true, build<EdfScheduler>},
    {Policy::kReinSbf, "rein-sbf", false, true, build_rein},
    {Policy::kDas, "das", true, true, build_das<paper>},
    // DAS-NA turns the whole adaptive feedback loop off: progress, the
    // clients' learned view and the servers' speed estimate.
    {Policy::kDasNoAdapt, "das-na", false, false, build_das<no_adapt>},
    {Policy::kDasNoDefer, "das-nd", true, true, build_das<no_defer>},
    {Policy::kDasNoAging, "das-noaging", true, true, build_das<no_aging>},
    {Policy::kDasCritical, "das-crit", true, true, build_das<critical_path>},
};

const PolicyInfo& info(Policy policy) {
  for (const PolicyInfo& row : kPolicies)
    if (row.policy == policy) return row;
  DAS_CHECK_MSG(false, "unknown policy enum");
  return kPolicies[0];
}

}  // namespace

std::string to_string(Policy policy) { return info(policy).name; }

Policy policy_from_string(const std::string& name) {
  std::string known;
  for (const PolicyInfo& row : kPolicies) {
    if (name == row.name) return row.policy;
    known.append(" ").append(row.name);
  }
  throw std::invalid_argument("unknown policy '" + name + "'; known policies:" +
                              known);
}

const std::vector<Policy>& all_policies() {
  static const std::vector<Policy> kAll = [] {
    std::vector<Policy> all;
    for (const PolicyInfo& row : kPolicies) all.push_back(row.policy);
    return all;
  }();
  return kAll;
}

bool uses_progress(Policy policy) { return info(policy).progress; }

bool learns_estimates(Policy policy) { return info(policy).learns; }

SchedulerPtr make_scheduler(Policy policy, const SchedulerConfig& config) {
  return info(policy).build(config);
}

}  // namespace das::sched
