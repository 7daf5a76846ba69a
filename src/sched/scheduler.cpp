#include "sched/scheduler.hpp"

#include "common/check.hpp"
#include "sched/basic_policies.hpp"
#include "sched/das.hpp"
#include "sched/rein.hpp"
#include "sched/req_srpt.hpp"

namespace das::sched {

void Scheduler::on_request_progress(RequestId, const ProgressUpdate&, SimTime) {}
void Scheduler::on_speed_estimate(double) {}
bool Scheduler::preempts(const OpContext&, const OpContext&) const { return false; }

std::string to_string(Policy policy) {
  switch (policy) {
    case Policy::kFcfs: return "fcfs";
    case Policy::kRandom: return "random";
    case Policy::kSjf: return "sjf";
    case Policy::kReqSrpt: return "req-srpt";
    case Policy::kEdf: return "edf";
    case Policy::kReinSbf: return "rein-sbf";
    case Policy::kDas: return "das";
    case Policy::kDasNoAdapt: return "das-na";
    case Policy::kDasNoDefer: return "das-nd";
    case Policy::kDasNoAging: return "das-noaging";
    case Policy::kDasCritical: return "das-crit";
  }
  DAS_CHECK_MSG(false, "unknown policy enum");
  return {};
}

Policy policy_from_string(const std::string& name) {
  for (const Policy p : all_policies())
    if (to_string(p) == name) return p;
  DAS_CHECK_MSG(false, "unknown policy name: " + name);
  return Policy::kFcfs;
}

const std::vector<Policy>& all_policies() {
  static const std::vector<Policy> kAll = {
      Policy::kFcfs,       Policy::kRandom,     Policy::kSjf,
      Policy::kReqSrpt,    Policy::kEdf,        Policy::kReinSbf,
      Policy::kDas,        Policy::kDasNoAdapt, Policy::kDasNoDefer,
      Policy::kDasNoAging, Policy::kDasCritical,
  };
  return kAll;
}

SchedulerPtr make_scheduler(Policy policy, const SchedulerConfig& config) {
  switch (policy) {
    case Policy::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case Policy::kRandom:
      return std::make_unique<RandomScheduler>(config.seed);
    case Policy::kSjf:
      return std::make_unique<SjfScheduler>();
    case Policy::kReqSrpt:
      return std::make_unique<ReqSrptScheduler>();
    case Policy::kEdf:
      return std::make_unique<EdfScheduler>();
    case Policy::kReinSbf: {
      ReinSbfScheduler::Options opt;
      opt.max_wait_us = config.max_wait_us;
      return std::make_unique<ReinSbfScheduler>(opt);
    }
    case Policy::kDas:
    case Policy::kDasNoAdapt:
    case Policy::kDasNoDefer:
    case Policy::kDasNoAging:
    case Policy::kDasCritical: {
      DasScheduler::Options opt;
      opt.adaptive = policy != Policy::kDasNoAdapt;
      opt.defer = policy != Policy::kDasNoDefer;
      opt.max_wait_us =
          policy == Policy::kDasNoAging ? kTimeInfinity : config.max_wait_us;
      opt.primary_key = policy == Policy::kDasCritical
                            ? DasScheduler::PrimaryKey::kCriticalPath
                            : DasScheduler::PrimaryKey::kTotalRemaining;
      return std::make_unique<DasScheduler>(opt);
    }
  }
  DAS_CHECK_MSG(false, "unknown policy enum");
  return nullptr;
}

}  // namespace das::sched
