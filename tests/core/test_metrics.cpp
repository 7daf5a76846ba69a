// Metrics is the run's one request ledger and the one holder of the
// measurement window: per tenant, the outcome counts of the whole run and of
// the window, with cluster totals summed over tenants; the window's RCT
// breakdown; and the clip of server busy time to the window. The Cluster audit re-checks request conservation against it
// (generated == settled + in flight) at the audit cadence.
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/invariant.hpp"
#include "core/cluster.hpp"

namespace das::core {

/// White-box corruption hook; friend of Cluster.
struct TestCorruptor {
  /// Books a generated request that no client holds, so the ledger claims one
  /// request more than is settled or in flight.
  static void orphan_request(Cluster& cluster) {
    cluster.metrics_.record_generated(cluster.sim_.now(), 0);
  }
};

namespace {

void expect_counts(const RequestCounts& c, std::uint64_t generated,
                   std::uint64_t completed, std::uint64_t failed,
                   std::uint64_t shed, std::uint64_t expired) {
  EXPECT_EQ(c.generated, generated);
  EXPECT_EQ(c.completed, completed);
  EXPECT_EQ(c.failed, failed);
  EXPECT_EQ(c.shed, shed);
  EXPECT_EQ(c.expired, expired);
}

void expect_same(const RequestCounts& a, const RequestCounts& b) {
  expect_counts(a, b.generated, b.completed, b.failed, b.shed, b.expired);
}

TEST(RequestLedger, CountsEverySettleKindPerTenantInAndOutOfTheWindow) {
  Metrics m;
  m.set_window(100.0, 200.0);
  m.enable_tenants(2);

  // Tenant 0: three in-window arrivals (completed, failed, shed at admission)
  // and one warmup arrival that expires.
  m.record_generated(120.0, 0);
  m.record_request(120.0, 130.0, 0);
  m.record_generated(150.0, 0);
  m.record_unserved(Settled::kFailed, 150.0, 160.0, 0);
  m.record_generated(110.0, 0);
  m.record_unserved(Settled::kShed, 110.0, 110.0, 0);
  m.record_generated(10.0, 0);
  m.record_unserved(Settled::kExpired, 10.0, 60.0, 0);

  // Tenant 1: two in-window arrivals (completed at the window's first
  // instant, expired past its end) and three outside it (failed, shed, and
  // completed at the window's exclusive end).
  m.record_generated(100.0, 1);
  m.record_request(100.0, 140.0, 1);
  m.record_generated(199.0, 1);
  m.record_unserved(Settled::kExpired, 199.0, 260.0, 1);
  m.record_generated(250.0, 1);
  m.record_unserved(Settled::kFailed, 250.0, 270.0, 1);
  m.record_generated(50.0, 1);
  m.record_unserved(Settled::kShed, 50.0, 55.0, 1);
  m.record_generated(200.0, 1);
  m.record_request(200.0, 320.0, 1);

  expect_counts(m.tenant_counts(0), 4, 1, 1, 1, 1);
  expect_counts(m.tenant_measured(0), 3, 1, 1, 1, 0);
  expect_counts(m.tenant_counts(1), 5, 2, 1, 1, 1);
  expect_counts(m.tenant_measured(1), 2, 1, 0, 0, 1);

  // Cluster totals are the sums over tenants, and each ledger closes.
  RequestCounts run_sum = m.tenant_counts(0);
  run_sum += m.tenant_counts(1);
  RequestCounts window_sum = m.tenant_measured(0);
  window_sum += m.tenant_measured(1);
  expect_same(m.counts(), run_sum);
  expect_same(m.measured(), window_sum);
  EXPECT_EQ(m.counts().generated, m.counts().settled());
  EXPECT_EQ(m.measured().generated, m.measured().settled());

  // Only in-window completions enter the RCT population.
  EXPECT_EQ(m.rct().moments().count(), m.measured().completed);
  EXPECT_EQ(m.tenant_rct(0).moments().count(), 1u);
  EXPECT_EQ(m.tenant_rct(1).moments().count(), 1u);
}

TEST(RequestLedger, RecordsTheBreakdownOfArrivalsInTheWindow) {
  Metrics m;
  m.set_window(100.0, 200.0);
  const auto record_at = [&](SimTime arrival) {
    trace::OpServiceTiming timing;
    timing.enqueued_at = arrival + 1.0;
    timing.service_start = arrival + 4.0;
    timing.service_end = arrival + 9.0;
    timing.valid = true;
    m.record_breakdown(
        trace::make_request_breakdown(arrival, arrival + 10.0, timing, 0.0, 1));
  };
  record_at(50.0);   // before the window
  record_at(100.0);  // inclusive lower edge
  record_at(150.0);
  record_at(200.0);  // exclusive upper edge
  const trace::BreakdownSummary s = m.breakdown().summary();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_DOUBLE_EQ(s.mean_rct_us, 10.0);
  EXPECT_DOUBLE_EQ(s.mean_service_us, 5.0);
  EXPECT_EQ(s.mean_deferred_wait_us, 0.0);
}

TEST(RequestLedger, ClipsIntervalsToTheWindow) {
  Metrics m;
  EXPECT_EQ(m.time_in_window(3.0, 8.0), 5.0);  // [0, ∞) until set
  m.set_window(50.0, 150.0);
  EXPECT_EQ(m.time_in_window(0.0, 100.0), 50.0);
  EXPECT_EQ(m.time_in_window(60.0, 70.0), 10.0);
  EXPECT_EQ(m.time_in_window(140.0, 400.0), 10.0);
  EXPECT_EQ(m.time_in_window(0.0, 50.0), 0.0);
  EXPECT_EQ(m.time_in_window(150.0, 160.0), 0.0);
}

TEST(RequestLedger, RejectsAnUnknownTenant) {
  Metrics m;
  m.enable_tenants(1);
  EXPECT_THROW(m.record_generated(0.0, 1), std::out_of_range);
  EXPECT_THROW(m.record_unserved(Settled::kShed, 0.0, 0.0, 1), std::out_of_range);
}

ClusterConfig audited_config() {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 2;
  cfg.keys_per_server = 200;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.target_load = 0.6;
  cfg.policy = sched::Policy::kDas;
  cfg.audit_every_events = 1;
  cfg.seed = 5;
  return cfg;
}

RunWindow audited_window() {
  RunWindow w;
  w.warmup_us = 2.0 * kMillisecond;
  w.measure_us = 10.0 * kMillisecond;
  return w;
}

TEST(RequestLedgerAudit, CleanRunAuditsClean) {
  Cluster cluster{audited_config(), audited_window()};
  const ExperimentResult r = cluster.run();
  EXPECT_GT(r.requests_generated, 0u);
  EXPECT_GT(cluster.simulator().audits_run(), 0u);
}

TEST(RequestLedgerAudit, DesyncedLedgerFailsTheNextAudit) {
  Cluster cluster{audited_config(), audited_window()};
  cluster.simulator().schedule_at(6.0 * kMillisecond,
                                  [&cluster] { TestCorruptor::orphan_request(cluster); });
  try {
    cluster.run();
    FAIL() << "the audit after the corrupting event must throw";
  } catch (const AuditError& e) {
    EXPECT_NE(std::string(e.what()).find("request conservation"), std::string::npos)
        << e.what();
    // Mid-run: the corruption was caught right after its own event.
    EXPECT_EQ(cluster.simulator().now(), 6.0 * kMillisecond);
  }
}

}  // namespace
}  // namespace das::core
