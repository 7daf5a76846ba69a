#include "core/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/cluster.hpp"
#include "workload/rate_function.hpp"

namespace das::core {
namespace {

/// The request rate the cluster's load calibration derives from `cfg` over a
/// 1 s horizon.
double request_rate(const ClusterConfig& cfg) {
  return Cluster{cfg, RunWindow{0.0, 1e6}}.request_rate();
}

/// Runs validate() and returns the rejection message ("" = accepted).
std::string validation_error(const ClusterConfig& cfg) {
  try {
    cfg.validate();
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(Config, MeanOpDemandCombinesOverheadAndTransfer) {
  // One 500-byte read at 100 bytes/us costs 10 + 5 = 15 us, so load 0.5 on
  // ten unit-speed servers admits 0.5 * 10 / 15 single-key requests per us.
  ClusterConfig cfg;
  cfg.num_servers = 10;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.per_op_overhead_us = 10.0;
  cfg.service_bytes_per_us = 100.0;
  cfg.value_size_bytes = make_constant(500.0);
  cfg.fanout = make_fixed_int(1);
  cfg.target_load = 0.5;
  EXPECT_DOUBLE_EQ(request_rate(cfg), 0.5 * 10.0 / 15.0);
}

TEST(Config, NominalCapacityIsServerCountWhenHomogeneous) {
  ClusterConfig cfg;
  cfg.num_servers = 48;
  EXPECT_DOUBLE_EQ(cfg.nominal_capacity(1e6), 48.0);
}

TEST(Config, CapacityHonoursSpeedFactors) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.server_speed_factors = {1.0, 1.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(cfg.nominal_capacity(1e6), 3.0);
}

TEST(Config, CapacityAveragesSharedSpeedProfile) {
  ClusterConfig cfg;
  cfg.num_servers = 10;
  cfg.speed_profiles = {workload::make_step_rate({500000.0}, {1.0, 0.5})};
  EXPECT_NEAR(cfg.nominal_capacity(1e6), 7.5, 0.1);
}

TEST(Config, ArrivalRateHitsTargetLoad) {
  ClusterConfig cfg;
  cfg.num_servers = 10;
  cfg.num_clients = 1;
  cfg.load_calibration = LoadCalibration::kAverageCapacity;
  cfg.per_op_overhead_us = 10.0;
  cfg.service_bytes_per_us = 1.0;
  cfg.value_size_bytes = make_constant(10.0);  // 20us per op
  cfg.fanout = make_fixed_int(5);              // 100us per request
  cfg.target_load = 0.5;
  // capacity 10 work-us/us * 0.5 = 5 work-us/us; / 100us per request.
  EXPECT_NEAR(request_rate(cfg), 0.05, 1e-9);
  // With every key on every server and reads spread evenly over them, no
  // server is hotter than the average and the hottest-server calibration
  // agrees.
  cfg.load_calibration = LoadCalibration::kHottestServer;
  cfg.replication = cfg.num_servers;
  cfg.replica_selection = ReplicaSelection::kRandom;
  EXPECT_NEAR(request_rate(cfg), 0.05, 1e-9);
}

TEST(Config, ArrivalRateScalesInverselyWithLoadProfileMean) {
  for (const LoadCalibration calibration :
       {LoadCalibration::kAverageCapacity, LoadCalibration::kHottestServer}) {
    ClusterConfig cfg;
    cfg.num_servers = 10;
    cfg.fanout = make_fixed_int(4);
    cfg.target_load = 0.6;
    cfg.load_calibration = calibration;
    const double base = request_rate(cfg);
    cfg.load_profile = workload::make_constant_rate(2.0);
    EXPECT_NEAR(request_rate(cfg), base / 2.0, base * 1e-9);
  }
}

TEST(Config, MismatchedSpeedFactorLengthThrows) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.server_speed_factors = {1.0, 1.0};
  EXPECT_THROW(cfg.nominal_capacity(1e6), std::logic_error);
}

TEST(Config, InvalidTargetLoadThrows) {
  // Loads past 1 are legal (E22 drives the cluster into overload on
  // purpose); only nonpositive or absurd targets are rejected.
  ClusterConfig cfg;
  cfg.target_load = 10.0;
  EXPECT_NE(validation_error(cfg).find("target_load"), std::string::npos);
  cfg.target_load = 0.0;
  EXPECT_NE(validation_error(cfg).find("target_load"), std::string::npos);
  EXPECT_THROW(request_rate(cfg), std::logic_error);
}

TEST(Config, OverloadTargetLoadIsAccepted) {
  ClusterConfig cfg;
  cfg.target_load = 1.2;
  EXPECT_EQ(validation_error(cfg), "");
  EXPECT_GT(request_rate(cfg), 0.0);
}

TEST(ConfigValidate, DefaultConfigIsAccepted) {
  EXPECT_EQ(validation_error(ClusterConfig{}), "");
}

TEST(ConfigValidate, RejectionsNameTheOffendingField) {
  ClusterConfig cfg;
  cfg.msg_loss_probability = 1.5;
  EXPECT_NE(validation_error(cfg).find("msg_loss_probability"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.msg_loss_probability = 0.1;  // loss without retransmission
  EXPECT_NE(validation_error(cfg).find("retry_timeout_us"), std::string::npos);

  cfg = ClusterConfig{};
  cfg.hedge_delay_us = 500.0;  // hedging without a second replica
  EXPECT_NE(validation_error(cfg).find("replication"), std::string::npos);

  cfg = ClusterConfig{};
  cfg.retry_backoff_max_us = 100.0;  // cap without retransmission
  EXPECT_NE(validation_error(cfg).find("retry_backoff_max_us"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.retry_timeout_us = 200.0;
  cfg.retry_backoff_max_us = 100.0;  // cap below the base timeout
  EXPECT_NE(validation_error(cfg).find("retry_backoff_max_us"),
            std::string::npos);

  cfg = ClusterConfig{};
  cfg.retry_max_attempts = 5;  // give-up bound without retransmission
  EXPECT_NE(validation_error(cfg).find("retry_max_attempts"),
            std::string::npos);
}

/// Whether validate() rejects `cfg` with a message naming `field`.
bool rejects_naming(const ClusterConfig& cfg, const std::string& field) {
  return validation_error(cfg).find(field) != std::string::npos;
}

TEST(ConfigValidate, ZipfThetaMustBeFiniteAndNonNegative) {
  ClusterConfig cfg;
  for (const double theta : {-0.5, std::nan(""), HUGE_VAL}) {
    cfg.zipf_theta = theta;
    EXPECT_TRUE(rejects_naming(cfg, "zipf_theta")) << theta;
  }
  cfg.zipf_theta = 0.0;
  EXPECT_EQ(validation_error(cfg), "");
}

TEST(ConfigValidate, NumServersMustBePositive) {
  ClusterConfig cfg;
  cfg.num_servers = 0;
  EXPECT_TRUE(rejects_naming(cfg, "num_servers"));
}

TEST(ConfigValidate, NumClientsMustBePositive) {
  ClusterConfig cfg;
  cfg.num_clients = 0;
  EXPECT_TRUE(rejects_naming(cfg, "num_clients"));
}

TEST(ConfigValidate, KeysPerServerMustBePositive) {
  ClusterConfig cfg;
  cfg.keys_per_server = 0;
  EXPECT_TRUE(rejects_naming(cfg, "keys_per_server"));
}

TEST(ConfigValidate, ReplayTraceKeysMustFitTheKeyspace) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.keys_per_server = 10;
  auto trace = std::make_shared<workload::ReplayTrace>();
  trace->records.push_back({0.0, workload::ReplayOp::kRead, 39, 64});
  workload::TenantSpec tenant;
  tenant.name = "cam";
  tenant.replay = trace;
  cfg.tenants = {tenant};
  EXPECT_EQ(validation_error(cfg), "");
  trace->records.push_back({1.0, workload::ReplayOp::kWrite, 40, 64});
  EXPECT_TRUE(rejects_naming(cfg, "tenants[0] ('cam'): replay trace references "
                                  "key 40 outside the keyspace of 40 keys"));
}

TEST(ConfigValidate, UniverseMustFitThirtyTwoBitRanks) {
  // validate() only checks the arithmetic; nothing is allocated.
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.keys_per_server = (std::uint64_t{1} << 30);  // exactly 2^32 keys
  EXPECT_TRUE(rejects_naming(cfg, "keys_per_server"));
  cfg.keys_per_server = (std::uint64_t{1} << 30) - 1;
  EXPECT_EQ(validation_error(cfg), "");
  // A product that would wrap 64 bits is rejected, not wrapped.
  cfg.keys_per_server = std::uint64_t{1} << 63;
  EXPECT_TRUE(rejects_naming(cfg, "keys_per_server"));
}

TEST(ConfigValidate, NetLatencyMustBeFiniteAndNonNegative) {
  ClusterConfig cfg;
  for (const double latency : {-1.0, std::nan(""), HUGE_VAL}) {
    cfg.net_latency_us = latency;
    EXPECT_TRUE(rejects_naming(cfg, "net_latency_us")) << latency;
  }
  cfg.net_latency_us = 0.0;
  EXPECT_EQ(validation_error(cfg), "");
}

TEST(ConfigValidate, PerOpOverheadMustBeFiniteAndNonNegative) {
  ClusterConfig cfg;
  for (const double overhead : {-1.0, std::nan(""), HUGE_VAL}) {
    cfg.per_op_overhead_us = overhead;
    EXPECT_TRUE(rejects_naming(cfg, "per_op_overhead_us")) << overhead;
  }
  cfg.per_op_overhead_us = 0.0;
  EXPECT_EQ(validation_error(cfg), "");
}

TEST(ConfigValidate, ServiceBytesPerUsMustBePositive) {
  ClusterConfig cfg;
  for (const double rate : {0.0, -50.0, std::nan(""), HUGE_VAL}) {
    cfg.service_bytes_per_us = rate;
    EXPECT_TRUE(rejects_naming(cfg, "service_bytes_per_us")) << rate;
  }
}

TEST(ConfigValidate, ServerSpeedFactorsMustCoverEveryServerAndBePositive) {
  ClusterConfig cfg;
  cfg.server_speed_factors.assign(cfg.num_servers - 1, 1.0);  // one short
  EXPECT_TRUE(rejects_naming(cfg, "server_speed_factors"));
  for (const double factor : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    cfg.server_speed_factors.assign(cfg.num_servers, 1.0);
    cfg.server_speed_factors.back() = factor;
    EXPECT_TRUE(rejects_naming(cfg, "server_speed_factors")) << factor;
  }
  cfg.server_speed_factors.back() = 0.5;
  EXPECT_EQ(validation_error(cfg), "");
}

TEST(ConfigValidate, SpeedProfilesListOneOrEveryServer) {
  ClusterConfig cfg;
  cfg.speed_profiles.assign(2, workload::make_constant_rate(1.0));
  EXPECT_TRUE(rejects_naming(cfg, "speed_profiles"));
  cfg.speed_profiles.assign(1, workload::make_constant_rate(1.0));
  EXPECT_EQ(validation_error(cfg), "");
  cfg.speed_profiles.assign(cfg.num_servers, workload::make_constant_rate(1.0));
  EXPECT_EQ(validation_error(cfg), "");
}

TEST(ConfigValidate, RetryTimeoutMustBeFiniteAndNonNegative) {
  ClusterConfig cfg;
  for (const double timeout : {-1.0, std::nan(""), HUGE_VAL}) {
    cfg.retry_timeout_us = timeout;
    EXPECT_TRUE(rejects_naming(cfg, "retry_timeout_us must be finite")) << timeout;
  }
}

TEST(ConfigValidate, RetryBackoffCapMustBeFiniteAndNonNegative) {
  ClusterConfig cfg;
  cfg.retry_timeout_us = 100.0;
  for (const double cap : {-1.0, std::nan(""), HUGE_VAL}) {
    cfg.retry_backoff_max_us = cap;
    EXPECT_TRUE(rejects_naming(cfg, "retry_backoff_max_us must be finite")) << cap;
  }
}

TEST(ConfigValidate, HedgeDelayMustBeFiniteAndNonNegative) {
  ClusterConfig cfg;
  cfg.replication = 2;
  for (const double delay : {-1.0, std::nan(""), HUGE_VAL}) {
    cfg.hedge_delay_us = delay;
    EXPECT_TRUE(rejects_naming(cfg, "hedge_delay_us must be finite")) << delay;
  }
  cfg.hedge_delay_us = 500.0;
  EXPECT_EQ(validation_error(cfg), "");
}

TEST(ConfigValidate, FaultPlanSafetyCoupling) {
  // A work-losing plan needs retransmission to keep accounting closed.
  ClusterConfig cfg;
  cfg.fault_plan = fault::parse_fault_plan("crash@1ms:s0,recover@2ms:s0");
  EXPECT_NE(validation_error(cfg).find("retry_timeout_us"), std::string::npos);
  cfg.retry_timeout_us = 100.0;
  EXPECT_EQ(validation_error(cfg), "");

  // A permanently dead target needs a bounded retry budget.
  cfg = ClusterConfig{};
  cfg.retry_timeout_us = 100.0;
  cfg.fault_plan = fault::parse_fault_plan("crash@1ms:s0");
  EXPECT_NE(validation_error(cfg).find("retry_max_attempts"),
            std::string::npos);
  cfg.retry_max_attempts = 4;
  EXPECT_EQ(validation_error(cfg), "");

  // Structural plan validation runs against the configured topology.
  cfg = ClusterConfig{};
  cfg.retry_timeout_us = 100.0;
  cfg.fault_plan = fault::parse_fault_plan("crash@1ms:s99,recover@2ms:s99");
  EXPECT_NE(validation_error(cfg).find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace das::core
