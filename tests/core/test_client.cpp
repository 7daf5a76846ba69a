#include "core/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "client_streams.hpp"
#include "store/lsm_model.hpp"

namespace das::core {
namespace {

struct SentOp {
  ServerId server;
  sched::OpContext ctx;
};
struct SentProgress {
  ServerId server;
  RequestId request;
  sched::ProgressUpdate update;
};

/// Records what a client sends; a client never sends responses.
struct RecordingTransport final : Transport {
  std::vector<SentOp>& ops;
  std::vector<SentProgress>& progress;
  RecordingTransport(std::vector<SentOp>& ops_out,
                     std::vector<SentProgress>& progress_out)
      : ops(ops_out), progress(progress_out) {}
  void send_op(ServerId s, const sched::OpContext& ctx) override {
    ops.push_back(SentOp{s, ctx});
  }
  void send_progress(ClientId c, ServerId s, RequestId r,
                     const sched::ProgressUpdate& u) override {
    EXPECT_EQ(c, 3u);  // the fixture's client id
    progress.push_back(SentProgress{s, r, u});
  }
  void send_response(const OpResponse&) override { FAIL(); }
};

struct ClientFixture : ::testing::Test {
  static constexpr std::size_t kServers = 4;

  sim::Simulator sim;
  Metrics metrics;
  store::PartitionerPtr partitioner = store::make_modulo_partitioner(kServers);
  // Demand 10+100/50 = 12us.
  std::vector<std::uint32_t> key_sizes = std::vector<std::uint32_t>(64, 100);
  FlatMap<KeyId, Bytes> issued_sizes;
  std::vector<SentOp> sent_ops;
  std::vector<SentProgress> sent_progress;
  RecordingTransport transport{sent_ops, sent_progress};
  std::unique_ptr<workload::MultigetGenerator> generator;
  std::unique_ptr<Client> client;
  /// The tenant's read/write split and the size law its writes draw from
  /// (plain reads unless a test sets them before build()).
  workload::OpMix mix{};
  RealDistPtr value_size;

  void build(std::uint32_t fanout, Client::Params overrides = {}) {
    workload::MultigetGenerator::Config gen_cfg;
    gen_cfg.key_universe = key_sizes.size();
    gen_cfg.zipf_theta = 0.0;
    gen_cfg.fanout = make_fixed_int(fanout);
    generator = std::make_unique<workload::MultigetGenerator>(gen_cfg);

    Client::Params params = overrides;
    params.id = 3;
    params.num_servers = kServers;
    params.cost = {10.0, 50.0};
    params.est_rtt_us = 10.0;

    metrics.enable_tenants(1);
    std::vector<Client::TenantStream> streams = one_stream(*generator);
    streams[0].mix = mix;
    streams[0].value_size = value_size;
    client = std::make_unique<Client>(sim, params, Rng{42}, std::move(streams),
                                      *partitioner, key_sizes, issued_sizes,
                                      metrics, transport);
  }

  /// Completes one sent op and feeds the response back.
  void respond(const SentOp& op, double d_hat = 0.0, double mu_hat = 1.0,
               OpStatus status = OpStatus::kOk) {
    OpResponse resp;
    resp.op_id = op.ctx.op_id;
    resp.request_id = op.ctx.request_id;
    resp.client = op.ctx.client;
    resp.server = op.server;
    resp.key = op.ctx.key;
    resp.hit = true;
    resp.value_size = 100;
    resp.completed_at = sim.now();
    resp.d_hat_us = d_hat;
    resp.mu_hat = mu_hat;
    resp.status = status;
    client->on_response(resp);
  }
};

TEST_F(ClientFixture, GeneratesRequestWithCorrectFanout) {
  build(8);
  client->start(1500.0);
  sim.run();
  EXPECT_EQ(metrics.counts().generated, 1u);
  EXPECT_EQ(sent_ops.size(), 8u);
  EXPECT_EQ(client->ops_generated(), 8u);
}

TEST_F(ClientFixture, OpsRoutedByPartitioner) {
  build(16);
  client->start(1500.0);
  sim.run();
  for (const SentOp& op : sent_ops)
    EXPECT_EQ(op.server, partitioner->server_for(op.ctx.key));
}

TEST_F(ClientFixture, TagsCarryRequestAggregates) {
  build(8);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 8u);
  const double expected_demand = 10.0 + 100.0 / 50.0;  // 12us each
  std::map<ServerId, double> per_server_demand;
  std::map<ServerId, std::uint32_t> per_server_ops;
  for (const SentOp& op : sent_ops) {
    EXPECT_DOUBLE_EQ(op.ctx.demand_us, expected_demand);
    per_server_demand[op.server] += expected_demand;
    ++per_server_ops[op.server];
  }
  double max_demand = 0;
  std::uint32_t max_ops = 0;
  for (const auto& [s, d] : per_server_demand) max_demand = std::max(max_demand, d);
  for (const auto& [s, n] : per_server_ops) max_ops = std::max(max_ops, n);

  for (const SentOp& op : sent_ops) {
    EXPECT_DOUBLE_EQ(op.ctx.total_demand_us, 8 * expected_demand);
    EXPECT_DOUBLE_EQ(op.ctx.bottleneck_demand_us, max_demand);
    EXPECT_EQ(op.ctx.bottleneck_ops, max_ops);
    EXPECT_DOUBLE_EQ(op.ctx.remaining_critical_us, expected_demand);
    EXPECT_EQ(op.ctx.request_id, sent_ops[0].ctx.request_id);
  }
}

TEST_F(ClientFixture, EstOtherCompletionExcludesOwnServer) {
  build(8);
  client->start(1500.0);
  sim.run();
  // With a cold view (d=0, mu=1) every op's full estimate is
  // arrival + rtt + demand; any op with at least one sibling on another
  // server carries exactly that bound.
  const SimTime arrival = 1000.0;
  const double full = arrival + 10.0 + 12.0;
  std::map<ServerId, int> per_server;
  for (const SentOp& op : sent_ops) ++per_server[op.server];
  for (const SentOp& op : sent_ops) {
    if (per_server.size() == 1) {
      EXPECT_DOUBLE_EQ(op.ctx.est_other_completion, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(op.ctx.est_other_completion, full);
    }
  }
}

TEST_F(ClientFixture, EstOtherCompletionTiedMaxReachesBothHolders) {
  // Value sizes by server: 0 and 1 hold 1000 B (demand 30us) and tie for
  // the largest full estimate, 2 holds 100 B (12us), 3 holds 400 B (18us).
  // The bound is the max over the OTHER servers, so the tied holders must
  // each see the other's maximum, not the runner-up behind it.
  for (std::size_t k = 0; k < key_sizes.size(); ++k) {
    key_sizes[k] = k % kServers < 2 ? 1000 : (k % kServers == 2 ? 100 : 400);
  }
  build(32);
  client->start(1500.0);
  sim.run();
  std::map<ServerId, double> max_full;
  for (const SentOp& op : sent_ops) {
    double& slot = max_full[op.server];
    slot = std::max(slot, 1000.0 + 10.0 + op.ctx.demand_us);
  }
  ASSERT_EQ(max_full.size(), kServers);
  ASSERT_DOUBLE_EQ(max_full[0], max_full[1]);
  for (const SentOp& op : sent_ops) {
    EXPECT_DOUBLE_EQ(op.ctx.est_other_completion, 1000.0 + 10.0 + 30.0)
        << "server " << op.server;
  }
}

TEST_F(ClientFixture, FanoutOfOneCarriesNoDeferralBound) {
  build(1);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 1u);
  EXPECT_DOUBLE_EQ(sent_ops[0].ctx.est_other_completion, 0.0);
  respond(sent_ops[0]);
  EXPECT_EQ(metrics.counts().completed, 1u);
  EXPECT_TRUE(sent_progress.empty());
}

TEST_F(ClientFixture, ProgressToTheLastRemainingServerHasBoundZero) {
  // Each response removes 12us of at most 96us of remaining demand, a move
  // of at least 12.5% (over the 5% threshold), so every response re-sends
  // progress to each server still holding ops. While two or more servers
  // remain, each update carries the others' full estimate (now + rtt + 12us
  // on a cold view); once a single server remains, nothing else bounds its
  // deferral.
  build(8);
  client->start(1500.0);
  sim.run();
  sim.run_until(1600.0);
  const ServerId last = sent_ops.back().server;
  std::vector<SentOp> others;
  for (const SentOp& op : sent_ops) {
    if (op.server != last) others.push_back(op);
  }
  ASSERT_FALSE(others.empty());
  for (std::size_t i = 0; i < others.size(); ++i) {
    sent_progress.clear();
    respond(others[i]);
    std::map<ServerId, int> updates;
    for (const SentProgress& prog : sent_progress) ++updates[prog.server];
    for (const SentProgress& prog : sent_progress) {
      const double expected = updates.size() == 1 ? 0.0 : 1600.0 + 10.0 + 12.0;
      EXPECT_DOUBLE_EQ(prog.update.est_other_completion, expected);
    }
    ASSERT_FALSE(updates.empty());
    if (i + 1 == others.size()) {
      ASSERT_EQ(updates.size(), 1u);
      EXPECT_EQ(updates.begin()->first, last);
    }
  }
}

// Tags, LSM prices and the load calibration share one cost model: a read's
// tag is what the LSM model charges an unstalled write of the same bytes.
TEST_F(ClientFixture, ReadTagIsTheLsmPriceOfAnUnstalledWrite) {
  build(1);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 1u);
  store::LsmModel lsm{store::LsmOptions{}, store::ServiceCost{10.0, 50.0}, 1};
  store::OpCostQuery write;
  write.key = sent_ops[0].ctx.key;
  write.is_write = true;
  write.size_bytes = 100;  // the key's catalogue size
  EXPECT_EQ(sent_ops[0].ctx.demand_us, lsm.base_cost_us(write, 0.0));
  EXPECT_EQ(sent_ops[0].ctx.demand_us, 12.0);
}

TEST_F(ClientFixture, RequestCompletesWhenAllOpsRespond) {
  metrics.set_window(0, kTimeInfinity);
  build(4);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 4u);
  sim.run_until(2000.0);
  for (const SentOp& op : sent_ops) respond(op);
  EXPECT_EQ(metrics.counts().completed, 1u);
  EXPECT_EQ(client->in_flight(), 0u);
  EXPECT_EQ(metrics.rct().moments().count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.rct().moments().max(), 1000.0);  // 2000 - 1000
}

TEST_F(ClientFixture, AdaptiveEstimatesLearnFromPiggybacks) {
  Client::Params p;
  p.adaptive = true;
  build(4, p);
  client->start(1500.0);
  sim.run();
  const ServerId s = sent_ops[0].server;
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 0.0);
  respond(sent_ops[0], /*d_hat=*/200.0, /*mu_hat=*/0.5);
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 60.0);    // 0 + 0.3*(200-0)
  EXPECT_DOUBLE_EQ(client->speed_estimate(s), 0.85);    // 1 + 0.3*(0.5-1)
}

TEST_F(ClientFixture, NonAdaptiveIgnoresPiggybacks) {
  Client::Params p;
  p.adaptive = false;
  build(4, p);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0], 500.0, 0.1);
  for (ServerId s = 0; s < kServers; ++s) {
    EXPECT_DOUBLE_EQ(client->delay_estimate(s), 0.0);
    EXPECT_DOUBLE_EQ(client->speed_estimate(s), 1.0);
  }
}

TEST_F(ClientFixture, ProgressSentWhenCriticalPathShrinks) {
  build(8);
  client->start(1500.0);
  sim.run();
  sim.run_until(1600.0);
  respond(sent_ops[0]);
  // 7 ops remain across <= 4 servers; at most one update per pending server,
  // and none to fully-answered servers.
  EXPECT_GT(client->progress_sent(), 0u);
  std::map<ServerId, int> updates;
  for (const auto& prog : sent_progress) {
    EXPECT_EQ(prog.request, sent_ops[0].ctx.request_id);
    EXPECT_DOUBLE_EQ(prog.update.remaining_total_us, 7 * 12.0);
    ++updates[prog.server];
  }
  for (const auto& [server, count] : updates) EXPECT_EQ(count, 1);
}

TEST_F(ClientFixture, ProgressSuppressedWhenDisabled) {
  Client::Params p;
  p.progress_updates = false;
  build(8, p);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0]);
  EXPECT_EQ(client->progress_sent(), 0u);
}

TEST_F(ClientFixture, ProgressGatedByThreshold) {
  // 32 ops of 12us: 384us of remaining demand, and a critical path (one op's
  // 12us) that never moves. One response shrinks the total by 3.1%, under
  // the 5% threshold; a second makes it 6.25% and sends. The next send then
  // needs 5% of the 360us last sent: two more responses (6.7%), not one.
  build(32);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 32u);
  std::size_t updates_before = 0;
  const auto respond_and_count = [&](std::size_t i) {
    respond(sent_ops[i]);
    const std::size_t sent = sent_progress.size() - updates_before;
    updates_before = sent_progress.size();
    return sent;
  };
  EXPECT_EQ(respond_and_count(0), 0u);
  EXPECT_GT(respond_and_count(1), 0u);
  for (const SentProgress& prog : sent_progress) {
    EXPECT_DOUBLE_EQ(prog.update.remaining_total_us, 30 * 12.0);
  }
  EXPECT_EQ(respond_and_count(2), 0u);
  EXPECT_GT(respond_and_count(3), 0u);
  EXPECT_EQ(client->progress_sent(), sent_progress.size());
}

TEST_F(ClientFixture, OpenLoopKeepsGeneratingWithoutResponses) {
  build(2);
  client->start(5500.0);
  sim.run();
  EXPECT_EQ(metrics.counts().generated, 5u);  // arrivals at 1000..5000
  EXPECT_EQ(client->in_flight(), 5u);
}

TEST_F(ClientFixture, DuplicateResponseThrows) {
  build(2);
  client->start(1500.0);
  sim.run();
  respond(sent_ops[0]);
  EXPECT_THROW(respond(sent_ops[0]), std::logic_error);
}

TEST_F(ClientFixture, DuplicateResponseNeverTouchesTheLearnedView) {
  // Regression (PR 7): the EWMA update used to run BEFORE the duplicate
  // check, so every hedged/retried duplicate applied the same piggyback
  // twice and skewed the adaptive view toward whichever server answered
  // redundantly.
  Client::Params p;
  p.adaptive = true;
  p.retry_timeout_us = 10'000.0;  // legalises duplicates; never fires here
  build(2, p);
  client->start(1500.0);
  sim.run_until(1050.0);
  ASSERT_EQ(sent_ops.size(), 2u);

  const ServerId s = sent_ops[0].server;
  respond(sent_ops[0], /*d_hat=*/200.0, /*mu_hat=*/0.5);
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 60.0);
  EXPECT_DOUBLE_EQ(client->speed_estimate(s), 0.85);

  // The same response delivered again (e.g. a served retransmission).
  respond(sent_ops[0], /*d_hat=*/200.0, /*mu_hat=*/0.5);
  EXPECT_EQ(client->duplicate_responses(), 1u);
  EXPECT_DOUBLE_EQ(client->delay_estimate(s), 60.0);   // NOT 102
  EXPECT_DOUBLE_EQ(client->speed_estimate(s), 0.85);   // NOT 0.745
}

TEST_F(ClientFixture, FailedOverOpNeverHedgesBackToSuspectedOrigin) {
  // Hedge x failover: once an op's origin is suspected and the op has moved
  // to a live replica, the (still pending) hedge must not resurrect the
  // origin — it targets the remaining third replica.
  Client::Params p;
  p.replication = 3;
  p.retry_timeout_us = 100.0;
  p.suspicion_rto_threshold = 1;
  p.hedge_delay_us = 150.0;
  build(1, p);
  client->start(1500.0);
  // t=1000: send to the primary. t in [1080, 1120]: first RTO -> origin
  // suspected, op fails over and is resent. t=1150: the hedge fires.
  sim.run_until(1200.0);
  ASSERT_EQ(sent_ops.size(), 3u);
  const ServerId origin = sent_ops[0].server;
  EXPECT_TRUE(client->suspects(origin));
  EXPECT_EQ(client->ops_failed_over(), 1u);
  EXPECT_EQ(client->ops_hedged(), 1u);
  const ServerId failover_target = sent_ops[1].server;
  const ServerId hedge_target = sent_ops[2].server;
  EXPECT_NE(failover_target, origin);
  EXPECT_NE(hedge_target, origin);
  EXPECT_NE(hedge_target, failover_target);
}

// Servers keep no catalogue: they serve the size each op carries. So every
// op a client sends, resends, hedges or fails over must carry its key's
// catalogue entry, for reads and for each replica's copy of a write alike.
TEST_F(ClientFixture, EveryOpSentCarriesItsKeysCatalogueSize) {
  static_assert(sizeof(sched::OpContext) == 136,
                "catalogue_bytes rides in padding; OpContext must not grow");
  // Eight keys, so reads revisit keys that writes have resized.
  key_sizes.resize(8);
  for (std::size_t k = 0; k < key_sizes.size(); ++k) {
    key_sizes[k] = static_cast<std::uint32_t>(100 + 7 * k);
  }
  mix = workload::OpMix{0.5, 0.25, 0.25};
  value_size = make_constant(5000.0);
  Client::Params p;
  p.replication = 3;
  p.retry_timeout_us = 100.0;
  p.hedge_delay_us = 150.0;
  p.suspicion_rto_threshold = 6;
  build(4, p);
  client->start(20000.0);
  // Nothing answers, so every op keeps retransmitting; reads hedge while
  // their replicas are trusted and fail over once their server is suspected.
  sim.run_until(20000.0);
  EXPECT_GT(client->ops_retransmitted(), 0u);
  EXPECT_GT(client->ops_hedged(), 0u);
  EXPECT_GT(client->ops_failed_over(), 0u);
  // The stamp is the catalogue's, never the size a write issued since.
  std::vector<bool> written(key_sizes.size(), false);
  std::size_t writes = 0, reads_of_written_keys = 0;
  for (const SentOp& op : sent_ops) {
    if (op.ctx.is_write) {
      ++writes;
      written[op.ctx.key] = true;
    } else if (written[op.ctx.key]) {
      ++reads_of_written_keys;
    }
    EXPECT_EQ(op.ctx.catalogue_bytes, key_sizes[op.ctx.key])
        << "op " << op.ctx.op_id << " of key " << op.ctx.key;
  }
  EXPECT_GT(writes, 0u);
  EXPECT_GT(reads_of_written_keys, 0u);
}

TEST_F(ClientFixture, LateDuplicateClearsSuspicionButNotTheView) {
  // The real-world shape of the duplicate path: an op fails over from a
  // suspected server to a live replica, completes there, and the original
  // server's late answer finally arrives. That answer is a liveness signal —
  // it must rehabilitate the suspected server — but it is NOT a fresh
  // feedback sample: the learned view stays untouched.
  Client::Params p;
  p.adaptive = true;
  p.retry_timeout_us = 100.0;
  p.suspicion_rto_threshold = 2;
  p.replication = 2;
  build(1, p);
  client->start(1500.0);
  sim.run_until(1400.0);  // two RTOs: original server suspected, op failed over
  ASSERT_GE(sent_ops.size(), 1u);

  const ServerId original = sent_ops.front().server;
  ASSERT_TRUE(client->suspects(original));
  EXPECT_GE(client->ops_failed_over(), 1u);
  const ServerId target = sent_ops.back().server;
  ASSERT_NE(target, original);

  // The failover target answers: the op completes.
  OpResponse resp;
  resp.op_id = sent_ops.front().ctx.op_id;
  resp.request_id = sent_ops.front().ctx.request_id;
  resp.client = sent_ops.front().ctx.client;
  resp.server = target;
  resp.key = sent_ops.front().ctx.key;
  resp.hit = true;
  resp.value_size = 100;
  resp.completed_at = sim.now();
  client->on_response(resp);
  EXPECT_EQ(metrics.counts().completed, 1u);

  // The original server's late answer to the first transmission.
  resp.server = original;
  resp.d_hat_us = 500.0;
  resp.mu_hat = 0.25;
  client->on_response(resp);
  EXPECT_EQ(client->duplicate_responses(), 1u);
  EXPECT_FALSE(client->suspects(original));  // liveness signal honoured
  EXPECT_DOUBLE_EQ(client->delay_estimate(original), 0.0);  // view untouched
  EXPECT_DOUBLE_EQ(client->speed_estimate(original), 1.0);
}

TEST_F(ClientFixture, BusyThenExhaustedRetryBudgetSettlesAsShed) {
  // A BUSY answer leaves the op to the retry timer; when the budget then
  // runs out, the overload layer is to blame: the request is shed, not
  // failed.
  Client::Params p;
  p.retry_timeout_us = 100.0;
  p.retry_max_attempts = 2;
  build(1, p);
  client->start(1500.0);
  sim.run_until(1050.0);
  ASSERT_EQ(sent_ops.size(), 1u);
  respond(sent_ops[0], 0.0, 1.0, OpStatus::kBusy);
  EXPECT_EQ(client->in_flight(), 1u);  // the retry timer still owns the op

  sim.run();  // one retransmission, then silence exhausts the budget
  EXPECT_EQ(sent_ops.size(), 2u);
  EXPECT_EQ(client->ops_abandoned(), 1u);
  EXPECT_EQ(metrics.counts().shed, 1u);
  EXPECT_EQ(metrics.counts().failed, 0u);
  EXPECT_EQ(client->in_flight(), 0u);
}

TEST_F(ClientFixture, BusyWithRetriesOffShedsAtOnceAndCancelsItsHedge) {
  Client::Params p;
  p.replication = 2;
  p.hedge_delay_us = 150.0;
  build(2, p);
  client->start(1500.0);
  sim.run_until(1050.0);
  ASSERT_EQ(sent_ops.size(), 2u);
  ASSERT_EQ(sim.pending(), 2u);  // one hedge timer per op

  respond(sent_ops[0], 0.0, 1.0, OpStatus::kBusy);
  EXPECT_EQ(sim.pending(), 1u);  // the shed op's hedge timer is gone
  EXPECT_EQ(client->in_flight(), 1u);

  sim.run();  // only the sibling hedges
  EXPECT_EQ(client->ops_hedged(), 1u);
  ASSERT_EQ(sent_ops.size(), 3u);
  EXPECT_EQ(sent_ops[2].ctx.op_id, sent_ops[1].ctx.op_id);
  respond(sent_ops[1]);
  EXPECT_EQ(metrics.counts().shed, 1u);
  EXPECT_EQ(metrics.counts().completed, 0u);
  EXPECT_EQ(client->ops_abandoned(), 0u);
  EXPECT_EQ(client->in_flight(), 0u);
}

TEST_F(ClientFixture, ResponseForAnOpOutsideItsPendingRequestThrows) {
  build(2);
  client->start(1500.0);
  sim.run();
  ASSERT_EQ(sent_ops.size(), 2u);
  SentOp stray = sent_ops[0];
  stray.ctx.op_id = std::max(sent_ops[0].ctx.op_id, sent_ops[1].ctx.op_id) + 1000;
  EXPECT_THROW(respond(stray), std::logic_error);
  // An id below the request's first op wraps to a huge offset.
  stray.ctx.op_id = std::min(sent_ops[0].ctx.op_id, sent_ops[1].ctx.op_id) - 1;
  EXPECT_THROW(respond(stray), std::logic_error);
}

}  // namespace
}  // namespace das::core
