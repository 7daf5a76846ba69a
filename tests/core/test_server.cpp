#include "core/server.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sched/scheduler.hpp"

namespace das::core {
namespace {

/// Records what a server sends; a server only ever sends responses.
struct RecordingTransport final : Transport {
  std::vector<OpResponse>& responses;
  explicit RecordingTransport(std::vector<OpResponse>& out) : responses(out) {}
  void send_op(ServerId, const sched::OpContext&) override { FAIL(); }
  void send_progress(ClientId, ServerId, RequestId,
                     const sched::ProgressUpdate&) override {
    FAIL();
  }
  void send_response(const OpResponse& resp) override { responses.push_back(resp); }
};

struct ServerFixture : ::testing::Test {
  sim::Simulator sim;
  Metrics metrics;
  std::vector<OpResponse> responses;
  RecordingTransport transport{responses};

  std::unique_ptr<Server> make_server(Server::Params params,
                                      sched::Policy policy = sched::Policy::kFcfs) {
    auto server = std::make_unique<Server>(sim, std::move(params),
                                           sched::make_scheduler(policy), metrics);
    server->set_transport(transport);
    return server;
  }

  /// An op of `key` that carries the key's catalogue size (0 = the key is
  /// not in the catalogue).
  static sched::OpContext op(OperationId id, KeyId key, double demand,
                             std::uint32_t catalogue_bytes = 0) {
    sched::OpContext ctx;
    ctx.op_id = id;
    ctx.request_id = id;
    ctx.key = key;
    ctx.catalogue_bytes = catalogue_bytes;
    ctx.demand_us = demand;
    return ctx;
  }
};

TEST_F(ServerFixture, ServesOpAfterServiceTime) {
  auto server = make_server({});
  server->receive_op(op(1, 5, 40.0, 100));
  sim.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0].completed_at, 40.0);
  EXPECT_TRUE(responses[0].hit);
  EXPECT_EQ(responses[0].value_size, 100u);
}

TEST_F(ServerFixture, MissOnUnknownKey) {
  auto server = make_server({});
  server->receive_op(op(1, 42, 10.0, /*catalogue_bytes=*/0));
  sim.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].hit);
  EXPECT_EQ(responses[0].value_size, 0u);
}

// Two replicas of key 3; every op carries the key's catalogue size. A
// write-all PUT completes on one replica first; until the other completes its
// copy, it keeps serving the catalogue size, exactly as a per-replica store
// would.
TEST_F(ServerFixture, LaggingReplicaServesOldSizeUntilItsWriteCompletes) {
  const std::vector<std::uint32_t> catalogue{10, 20, 30, 40};
  const auto served = [&](const Server& server, KeyId key) {
    return server.written_size(key).value_or(catalogue[key]);
  };
  Server::Params first_params;
  first_params.id = 0;
  Server::Params lagging_params;
  lagging_params.id = 1;
  auto first = make_server(std::move(first_params));
  auto lagging = make_server(std::move(lagging_params));

  sched::OpContext put = op(1, 3, 10.0, catalogue[3]);
  put.is_write = true;
  put.write_size = 900;
  first->receive_op(put);                              // PUT done at t=10
  lagging->receive_op(op(2, 0, 100.0, catalogue[0]));  // busy until t=100
  lagging->receive_op(op(3, 3, 10.0, catalogue[3]));   // GET of key 3, t=100..110
  put.op_id = 4;
  lagging->receive_op(put);  // its PUT copy done at t=120

  sim.run_until(50.0);
  EXPECT_EQ(served(*first, 3), 900u);
  EXPECT_EQ(served(*lagging, 3), 40u);
  first->receive_op(op(5, 3, 10.0, catalogue[3]));  // GET of key 3 at t=50..60
  sim.run();

  ASSERT_EQ(responses.size(), 5u);
  const auto response_for = [&](OperationId id) {
    for (const OpResponse& r : responses)
      if (r.op_id == id) return r;
    ADD_FAILURE() << "no response for op " << id;
    return OpResponse{};
  };
  EXPECT_EQ(response_for(5).value_size, 900u);
  EXPECT_EQ(response_for(3).value_size, 40u);
  EXPECT_TRUE(response_for(3).hit);
  EXPECT_EQ(served(*lagging, 3), 900u);
  // Keys no PUT touched still answer from the catalogue size on the op.
  EXPECT_EQ(served(*first, 1), 20u);
  EXPECT_EQ(first->written_size(1), std::nullopt);
}

TEST_F(ServerFixture, HalfSpeedDoublesServiceTime) {
  Server::Params params;
  params.speed_factor = 0.5;
  auto server = make_server(std::move(params));
  server->receive_op(op(1, 1, 40.0));
  sim.run();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0].completed_at, 80.0);
}

TEST_F(ServerFixture, SpeedProfileModulatesService) {
  Server::Params params;
  params.speed_profile = workload::make_step_rate({100.0}, {1.0, 0.5});
  auto server = make_server(std::move(params));
  server->receive_op(op(1, 1, 40.0));  // at t=0, speed 1.0 => done at 40
  sim.run();
  EXPECT_DOUBLE_EQ(responses[0].completed_at, 40.0);
  sim.run_until(200.0);
  server->receive_op(op(2, 1, 40.0));  // at t=200, speed 0.5 => 80us
  sim.run();
  EXPECT_DOUBLE_EQ(responses[1].completed_at, 280.0);
}

TEST_F(ServerFixture, QueueDrainsSequentially) {
  auto server = make_server({});
  for (OperationId i = 0; i < 5; ++i) server->receive_op(op(i, 1, 10.0));
  EXPECT_EQ(server->queue_length(), 4u);  // one already in service
  sim.run();
  ASSERT_EQ(responses.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(responses[i].completed_at, static_cast<double>(i + 1) * 10.0);
  EXPECT_EQ(server->ops_completed(), 5u);
  EXPECT_FALSE(server->busy());
}

TEST_F(ServerFixture, MuHatConvergesToTrueSpeed) {
  // The estimate starts at the static factor (1.0); a speed profile halves
  // the true speed, which the estimator (EWMA gain 0.1) has to learn.
  Server::Params params;
  params.speed_profile = workload::make_constant_rate(0.5);
  auto server = make_server(std::move(params));
  server->receive_op(op(0, 1, 10.0));
  sim.run();
  EXPECT_DOUBLE_EQ(server->mu_hat(), 1.0 + 0.1 * (0.5 - 1.0));
  for (OperationId i = 1; i < 100; ++i) server->receive_op(op(i, 1, 10.0));
  sim.run();
  EXPECT_NEAR(server->mu_hat(), 0.5, 0.001);
}

TEST_F(ServerFixture, DHatReflectsBacklog) {
  auto server = make_server({});
  for (OperationId i = 0; i < 4; ++i) server->receive_op(op(i, 1, 25.0));
  // One op in service; three queued at 25us each = 75us of backlog.
  EXPECT_NEAR(server->d_hat_us(), 75.0, 1e-9);
  sim.run();
  EXPECT_DOUBLE_EQ(server->d_hat_us(), 0.0);
}

TEST_F(ServerFixture, ResponsePiggybacksEstimates) {
  auto server = make_server({});
  for (OperationId i = 0; i < 3; ++i) server->receive_op(op(i, 1, 10.0));
  sim.run();
  // First response sent when two ops remain queued... the server starts the
  // next op before responding, so the piggybacked d_hat covers the remaining
  // queue only.
  EXPECT_GT(responses[0].mu_hat, 0.0);
  EXPECT_GE(responses[0].d_hat_us, 0.0);
  EXPECT_GT(responses[0].d_hat_us, responses[2].d_hat_us);
}

TEST_F(ServerFixture, UtilizationWindowClipsBusyTime) {
  auto server = make_server({});
  metrics.set_window(50.0, 150.0);
  server->receive_op(op(1, 1, 100.0));  // busy [0, 100): 50 inside window
  sim.run();
  EXPECT_DOUBLE_EQ(server->busy_time_in_window(), 50.0);
}

TEST_F(ServerFixture, MetricsRecordOperationWaits) {
  metrics.set_window(0, kTimeInfinity);
  auto server = make_server({});
  server->receive_op(op(1, 1, 10.0));
  server->receive_op(op(2, 1, 10.0));
  sim.run();
  EXPECT_EQ(metrics.op_latency().moments().count(), 2u);
  // Second op waited 10us for the first.
  EXPECT_DOUBLE_EQ(metrics.op_wait().moments().max(), 10.0);
}

}  // namespace
}  // namespace das::core
