// Cross-policy overload properties: the extended conservation law
//
//   generated == completed + failed + shed + expired
//
// and clean structural audits must hold for EVERY scheduling policy, with
// and without bounded queues, with and without deadlines, across seeds.
// The overload layer lives outside the schedulers — no policy should be
// able to break it, and no protection combination should be able to lose
// or double-count a request under any policy.
//
// Bit-identity of feature-off runs with the pre-PR engine is enforced by
// the pinned golden grid (test_golden_results.cpp, generated before this
// layer existed); here we additionally pin that an explicitly-constructed
// all-off OverloadConfig is indistinguishable from the default.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "overload/overload.hpp"

namespace das::core {
namespace {

ClusterConfig property_config(sched::Policy policy, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 2;
  cfg.keys_per_server = 100;
  cfg.zipf_theta = 0.6;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 1.2;  // past saturation: protections actually engage
  cfg.fanout = make_uniform_int(1, 6);
  cfg.policy = policy;
  cfg.seed = seed;
  cfg.audit_every_events = 256;  // deep structural audits along the run
  return cfg;
}

RunWindow property_window() {
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 10.0 * kMillisecond;
  return w;
}

void expect_conserved(const ExperimentResult& r, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(r.requests_generated, r.requests_completed + r.requests_failed +
                                      r.requests_shed + r.requests_expired);
  EXPECT_LE(r.goodput_rps, r.throughput_rps + 1e-9);
  EXPECT_GE(r.wasted_service_us, 0.0);
}

// The bounded/unbounded x deadline on/off grid of the issue. Audits run
// during every simulation (audit_every_events above) and throw on the first
// violated invariant, so a plain successful run IS the audit assertion.
TEST(OverloadProperties, ConservationAcrossPoliciesProtectionsAndSeeds) {
  for (const sched::Policy policy : sched::all_policies()) {
    for (const bool bounded : {false, true}) {
      for (const bool deadlines : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
          ClusterConfig cfg = property_config(policy, seed);
          if (bounded) cfg.overload.queue_cap = 24;
          if (deadlines) cfg.overload.deadline_budget_us = 4.0 * kMillisecond;
          const std::string what = std::string(sched::to_string(policy)) +
                                   (bounded ? " bounded" : " unbounded") +
                                   (deadlines ? " deadline" : " no-deadline") +
                                   " seed=" + std::to_string(seed);
          SCOPED_TRACE(what);
          const ExperimentResult r = run_experiment(cfg, property_window());
          expect_conserved(r, what.c_str());
          if (!bounded) {
            EXPECT_EQ(r.ops_rejected_busy, 0u);
            EXPECT_EQ(r.ops_shed_sojourn, 0u);
          }
          if (!deadlines) {
            EXPECT_EQ(r.requests_expired, 0u);
            EXPECT_EQ(r.ops_expired_dropped, 0u);
          }
        }
      }
    }
  }
}

// The sojourn-drop rejection policy rides the same grid; one policy per
// scheduler family keeps the runtime in check while still crossing the
// protection with every scheduling discipline shape.
TEST(OverloadProperties, SojournDropConservesAcrossPolicies) {
  for (const sched::Policy policy : sched::all_policies()) {
    ClusterConfig cfg = property_config(policy, 3);
    cfg.overload.queue_cap = 24;
    cfg.overload.reject_policy = overload::RejectPolicy::kSojournDrop;
    cfg.overload.deadline_budget_us = 4.0 * kMillisecond;
    const std::string what =
        std::string("sojourn-drop ") + sched::to_string(policy);
    SCOPED_TRACE(what);
    const ExperimentResult r = run_experiment(cfg, property_window());
    expect_conserved(r, what.c_str());
  }
}

// Admission control stacked on top must still close the books — shed at
// admission is still shed, and the coin flips must not disturb the
// workload stream that conservation is counted against.
TEST(OverloadProperties, AdmissionStacksWithoutLeaks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ClusterConfig cfg = property_config(sched::Policy::kDas, seed);
    cfg.overload.queue_cap = 24;
    cfg.overload.deadline_budget_us = 4.0 * kMillisecond;
    cfg.overload.admission = true;
    const std::string what = "admission seed=" + std::to_string(seed);
    SCOPED_TRACE(what);
    const ExperimentResult r = run_experiment(cfg, property_window());
    expect_conserved(r, what.c_str());
    EXPECT_LE(r.requests_shed_admission, r.requests_shed);
  }
}

// An explicitly-constructed all-off OverloadConfig (even with a sojourn
// threshold, which is inert while the queue is unbounded) must be
// bit-identical to the default: the tuning knob alone must not perturb a
// single RNG draw or wire byte.
TEST(OverloadProperties, InertKnobsAreBitIdentical) {
  const ExperimentResult base =
      run_experiment(property_config(sched::Policy::kDas, 5), property_window());
  ClusterConfig cfg = property_config(sched::Policy::kDas, 5);
  cfg.overload.sojourn_threshold_us = 123.0;  // inert without queue_cap
  const ExperimentResult tuned = run_experiment(cfg, property_window());
  EXPECT_EQ(base.requests_generated, tuned.requests_generated);
  EXPECT_EQ(base.net_messages, tuned.net_messages);
  EXPECT_EQ(base.net_bytes, tuned.net_bytes);
  EXPECT_EQ(base.rct.mean, tuned.rct.mean);
  EXPECT_EQ(base.rct.p999, tuned.rct.p999);
  EXPECT_EQ(tuned.requests_shed, 0u);
  EXPECT_EQ(tuned.requests_expired, 0u);
  EXPECT_DOUBLE_EQ(tuned.goodput_rps, tuned.throughput_rps);
}

}  // namespace
}  // namespace das::core
