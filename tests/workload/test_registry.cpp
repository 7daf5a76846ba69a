#include "workload/registry.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "workload/replay.hpp"

namespace das::workload {
namespace {

/// A two-record trace on disk; returns its path.
std::string write_trace(const std::string& name) {
  ReplayTrace trace;
  trace.records.push_back({0.0, ReplayOp::kRead, 3, 64});
  trace.records.push_back({5.0, ReplayOp::kWrite, 9, 128});
  const std::string path = ::testing::TempDir() + name;
  trace.save(path);
  return path;
}

/// A path no test writes: a spec naming it must fail before any load.
std::string missing_trace() { return ::testing::TempDir() + "never_written.csv"; }

TEST(Registry, SingleTenantComposesClauses) {
  const TenantSpec t =
      parse_tenant("ycsb-b+zipf:1.1+share:3+name:heavy+drift:5000:37");
  EXPECT_EQ(t.name, "heavy");
  EXPECT_DOUBLE_EQ(t.share, 3.0);
  EXPECT_DOUBLE_EQ(t.zipf_theta, 1.1);
  ASSERT_TRUE(t.mix.has_value());
  EXPECT_DOUBLE_EQ(t.mix->read, 0.95);
  EXPECT_DOUBLE_EQ(t.drift.rotate_period_us, 5000.0);
  EXPECT_EQ(t.drift.rotate_stride, 37u);
  EXPECT_TRUE(t.drift.enabled());
  EXPECT_EQ(t.replay, nullptr);
}

TEST(Registry, UnsetAspectsInherit) {
  const TenantSpec t = parse_tenant("name:x");
  EXPECT_DOUBLE_EQ(t.share, 1.0);
  EXPECT_LT(t.zipf_theta, 0.0);  // inherit cluster theta
  EXPECT_FALSE(t.mix.has_value());
  EXPECT_EQ(t.fanout, nullptr);
  EXPECT_EQ(t.value_size, nullptr);
  EXPECT_FALSE(t.drift.enabled());
  EXPECT_EQ(t.replay, nullptr);
}

TEST(Registry, FanoutAndSizeKeepColonsInDistSpec) {
  // The clause splitter must not eat the ':' inside the nested dist spec.
  const TenantSpec t = parse_tenant("fanout:uniform:1:15+size:lognormal:385:1.5");
  ASSERT_NE(t.fanout, nullptr);
  ASSERT_NE(t.value_size, nullptr);
  EXPECT_DOUBLE_EQ(t.fanout->mean(), 8.0);
  EXPECT_NEAR(t.value_size->mean(), 385.0, 1e-6);
}

TEST(Registry, StormClausesAccumulate) {
  const TenantSpec t =
      parse_tenant("storm:1000:2000:4:0.6:7+storm:5000:9000:2:0.3:9");
  ASSERT_EQ(t.drift.storms.size(), 2u);
  EXPECT_DOUBLE_EQ(t.drift.storms[0].start, 1000.0);
  EXPECT_DOUBLE_EQ(t.drift.storms[0].end, 2000.0);
  EXPECT_EQ(t.drift.storms[0].keys, 4u);
  EXPECT_DOUBLE_EQ(t.drift.storms[0].share, 0.6);
  EXPECT_EQ(t.drift.storms[0].seed, 7u);
  EXPECT_EQ(t.drift.storms[1].keys, 2u);
  EXPECT_TRUE(t.drift.enabled());
}

TEST(Registry, MultiTenantFillsDefaultNames) {
  const auto tenants = parse_tenants("ycsb-c;ycsb-a+name:writer;ycsb-b");
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants[0].name, "t0");
  EXPECT_EQ(tenants[1].name, "writer");
  EXPECT_EQ(tenants[2].name, "t2");
}

TEST(Registry, ReplayTenantParses) {
  const std::string path = write_trace("registry_replay.csv");
  const TenantSpec t = parse_tenant("replay:" + path + "+share:2+name:cam");
  ASSERT_NE(t.replay, nullptr);
  EXPECT_EQ(t.replay->size(), 2u);
  EXPECT_EQ(t.replay->max_key(), 9u);
  EXPECT_DOUBLE_EQ(t.share, 2.0);
  EXPECT_EQ(t.name, "cam");
}

TEST(Registry, EveryBuiltinFamilyParses) {
  const std::string replay = "replay:" + write_trace("registry_families.csv");
  for (const std::string clause :
       {"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-f", "mix:0.5:0.25:0.25", "zipf:0.9",
        "fanout:fixed:4", "size:constant:64", "share:2", "name:x", "drift:5000:3",
        "storm:1000:2000:4:0.5:7", replay.c_str()}) {
    EXPECT_NO_THROW(parse_tenant(clause)) << clause;
  }
}

// --- negative grammar ------------------------------------------------------

void expect_message(const std::string& spec, const std::string& needle) {
  try {
    if (spec.find(';') != std::string::npos) {
      (void)parse_tenants(spec);
    } else {
      (void)parse_tenant(spec);
    }
    ADD_FAILURE() << "accepted: '" << spec << "'";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << spec << " message: " << e.what();
  }
}

TEST(RegistryNegative, UnknownFamilyListsKnownFamilies) {
  try {
    (void)parse_tenant("ycsb-z");
    ADD_FAILURE() << "accepted ycsb-z";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload family 'ycsb-z'"), std::string::npos)
        << msg;
    // The message must enumerate the registry so a typo is self-correcting.
    for (const char* family : {"ycsb-a", "zipf", "drift", "replay"}) {
      EXPECT_NE(msg.find(family), std::string::npos) << family << ": " << msg;
    }
  }
}

TEST(RegistryNegative, EmptyAndMalformedSpecs) {
  EXPECT_THROW(parse_tenant(""), std::logic_error);
  EXPECT_THROW(parse_tenants(""), std::logic_error);
  expect_message("ycsb-b+", "empty clause");
  expect_message("+ycsb-b", "empty clause");
  expect_message("ycsb-b;;ycsb-a", "empty tenant");
  expect_message("ycsb-b;", "empty tenant");
}

TEST(RegistryNegative, ClauseArgumentValidation) {
  // Wrong arity.
  expect_message("ycsb-a:1", "takes no arguments");
  expect_message("zipf", "zipf:THETA");
  expect_message("zipf:1:2", "zipf:THETA");
  expect_message("share", "share:WEIGHT");
  expect_message("name", "name:LABEL");
  expect_message("drift:5000", "drift:PERIOD_US:STRIDE");
  expect_message("storm:1:2:3:0.5", "storm:START_US:END_US:KEYS:SHARE:SEED");
  expect_message("mix:0.5:0.5", "mix:READ:UPDATE:RMW");
  expect_message("fanout", "fanout:<int dist spec>");
  expect_message("size", "size:<real dist spec>");
  expect_message("replay", "replay:PATH");
  // Bad numbers.
  expect_message("zipf:abc", "bad theta 'abc'");
  expect_message("zipf:", "empty theta");
  expect_message("zipf:-0.5", "theta must be >= 0");
  expect_message("share:0", "must be > 0");
  expect_message("share:-1", "must be > 0");
  expect_message("share:nan", "non-finite");
  expect_message("name:", "empty label");
  expect_message("drift:0:3", "period must be > 0");
  expect_message("drift:5000:0", "stride must be a positive integer");
  expect_message("drift:5000:1.5", "stride must be a positive integer");
  // Storm window sanity.
  expect_message("storm:2000:1000:4:0.5:7", "0 <= start < end");
  expect_message("storm:1000:1000:4:0.5:7", "0 <= start < end");
  expect_message("storm:1000:2000:0:0.5:7", "keys must be a positive integer");
  expect_message("storm:1000:2000:4:1.5:7", "share must be in [0,1]");
  expect_message("storm:1000:2000:4:0.5:-1", "seed must be a non-negative");
  // Nested dist specs validate eagerly at parse time.
  expect_message("fanout:weibull:1:2", "unknown int distribution family");
  expect_message("size:constant:nan", "non-finite");
}

TEST(RegistryNegative, ReplayExcludesSyntheticClauses) {
  // The trace does not exist: the combination is rejected before any load.
  const std::string replay = "replay:" + missing_trace();
  for (const std::string& spec :
       {replay + "+ycsb-a", replay + "+zipf:0.9", replay + "+fanout:fixed:8",
        replay + "+drift:5000:3", "ycsb-a+" + replay}) {
    expect_message(spec, "combines replay with synthetic clauses");
  }
  // share/name/size are still fine on a replay tenant.
  EXPECT_NO_THROW(parse_tenant("replay:" + write_trace("registry_excludes.csv") +
                               "+share:2+name:cam+size:constant:64"));
}

TEST(RegistryNegative, UnloadableTraceIsAParseError) {
  expect_message("replay:" + missing_trace(), "cannot open replay trace");
  const std::string headerless = ::testing::TempDir() + "registry_headerless.csv";
  {
    std::ofstream out{headerless};
  }
  expect_message("replay:" + headerless, "is empty (no header)");
}

TEST(RegistryNegative, BadDistributionNamesItsTenant) {
  expect_message("ycsb-c;ycsb-a+fanout:fixed:0",
                 "tenants[1] ('t1') fanout: out-of-range argument in "
                 "distribution spec 'fixed:0'");
  // The name is the tenant's own, even when `name:` follows the bad clause.
  expect_message("size:constant:-5+name:hog;ycsb-c",
                 "tenants[0] ('hog') size: out-of-range argument");
  // A lone spec has no index to name.
  expect_message("fanout:fixed:0", "out-of-range argument in distribution spec");
}

TEST(RegistryNegative, DuplicateTenantNames) {
  expect_message("ycsb-a+name:x;ycsb-b+name:x", "duplicate tenant name 'x'");
  // A default-assigned name colliding with an explicit one is also a dup.
  expect_message("ycsb-a;ycsb-b+name:t0", "duplicate tenant name 't0'");
}

}  // namespace
}  // namespace das::workload
