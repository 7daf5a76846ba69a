// Simulator-side auditing: the cadence fires every N dispatched events,
// registered components are included, violations abort the run by throwing,
// and the simulator's own structural invariants hold through heavy
// schedule/cancel churn.
#include <gtest/gtest.h>

#include <utility>

#include "closure_sink.hpp"
#include "common/invariant.hpp"
#include "sim/simulator.hpp"

namespace das::sim {

/// Breaks the delivery lane's invariants on purpose (friend of Simulator).
struct TestCorruptor {
  static Simulator::QueueEntry& lane_entry(Simulator& sim, std::size_t i) {
    return sim.lane_[(sim.lane_head_ + i) & (sim.lane_.size() - 1)];
  }
  static void swap_lane_entries(Simulator& sim) {
    std::swap(lane_entry(sim, 0), lane_entry(sim, 1));
  }
  /// Turns the lane front into a timer entry naming a free slab slot.
  static void kill_lane_front(Simulator& sim) { lane_entry(sim, 0).slot = 0; }
  static void backdate_lane_back(Simulator& sim, SimTime t) {
    lane_entry(sim, sim.lane_size_ - 1).t = t;
  }
  static void drop_live_count(Simulator& sim) { --sim.live_; }
};

namespace {

class CountingAuditable final : public Auditable {
 public:
  void check_invariants() const override { ++calls; }
  mutable int calls = 0;
};

class FailingAuditable final : public Auditable {
 public:
  void check_invariants() const override {
    DAS_AUDIT(false, "deliberately broken component");
  }
};

TEST(SimulatorAudit, OwnInvariantsHoldThroughChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(static_cast<SimTime>(i % 17), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) sim.cancel(handles[i]);
  EXPECT_NO_THROW(sim.check_invariants());
  while (sim.step()) {
    EXPECT_NO_THROW(sim.check_invariants());
  }
}

TEST(SimulatorAudit, CadenceRunsRegisteredAuditables) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  sim.set_audit_cadence(4);
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run();
  // 20 events at cadence 4 → audits after events 4, 8, 12, 16, 20.
  EXPECT_EQ(sim.audits_run(), 5u);
  EXPECT_EQ(counting.calls, 5);
}

TEST(SimulatorAudit, ZeroCadenceDisablesAudits) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.audits_run(), 0u);
  EXPECT_EQ(counting.calls, 0);
}

TEST(SimulatorAudit, AuditNowIsOnDemand) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  EXPECT_NO_THROW(sim.audit_now());
  EXPECT_EQ(sim.audits_run(), 1u);
  EXPECT_EQ(counting.calls, 1);
}

TEST(SimulatorAudit, BrokenComponentStopsTheRun) {
  Simulator sim;
  FailingAuditable failing;
  sim.add_auditable(&failing);
  sim.set_audit_cadence(1);
  sim.schedule_at(1.0, [] {});
  EXPECT_THROW(sim.run(), AuditError);
}

TEST(SimulatorAudit, CadenceAppliesToRunUntil) {
  Simulator sim;
  CountingAuditable counting;
  sim.add_auditable(&counting);
  sim.set_audit_cadence(2);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run_until(3.5);  // dispatches events at t = 0, 1, 2, 3
  EXPECT_EQ(sim.audits_run(), 2u);
  EXPECT_EQ(counting.calls, 2);
}

/// Two deliveries in the lane and one timer in the heap, with the clock
/// moved to 1 so an entry can be backdated into the past.
void fill_lane(Simulator& sim, ClosureSink& sink) {
  sim.schedule_at(1.0, [] {});
  sim.step();
  sim.schedule_delivery(2.0, sink([] {}));
  sim.schedule_delivery(3.0, sink([] {}));
  sim.schedule_at(2.5, [] {});
  ASSERT_NO_THROW(sim.check_invariants());
}

TEST(SimulatorAudit, LaneOutOfOrderIsCaught) {
  Simulator sim;
  ClosureSink sink{sim};
  fill_lane(sim, sink);
  TestCorruptor::swap_lane_entries(sim);
  EXPECT_THROW(sim.check_invariants(), AuditError);
}

TEST(SimulatorAudit, DeadLaneEntryIsCaught) {
  Simulator sim;
  ClosureSink sink{sim};
  fill_lane(sim, sink);
  TestCorruptor::kill_lane_front(sim);
  EXPECT_THROW(sim.check_invariants(), AuditError);
}

TEST(SimulatorAudit, LaneEntryInThePastIsCaught) {
  Simulator sim;
  ClosureSink sink{sim};
  fill_lane(sim, sink);
  TestCorruptor::backdate_lane_back(sim, 0.5);
  EXPECT_THROW(sim.check_invariants(), AuditError);
}

TEST(SimulatorAudit, LiveCountCoversHeapAndLane) {
  Simulator sim;
  ClosureSink sink{sim};
  fill_lane(sim, sink);
  EXPECT_EQ(sim.pending(), 3u);
  // One timer holds a slab slot; the two deliveries hold none.
  EXPECT_EQ(sim.slab_slots(), 1u);
  TestCorruptor::drop_live_count(sim);
  EXPECT_THROW(sim.check_invariants(), AuditError);
}

}  // namespace
}  // namespace das::sim
