// Workload registry: named, composable workload families behind one parser.
//
// A *tenant spec* is a '+'-joined list of family clauses, each of which
// mutates one aspect of a TenantSpec:
//
//   ycsb-a | ycsb-b | ycsb-c | ycsb-f   named YCSB operation mixes
//   mix:READ:UPDATE:RMW                 explicit operation mix
//   zipf:THETA                          key-popularity skew
//   fanout:<int dist spec>              multiget fan-out distribution
//   size:<real dist spec>               value-size distribution
//   share:WEIGHT                        arrival-rate weight (> 0)
//   name:LABEL                          tenant label for metrics/JSON
//   drift:PERIOD_US:STRIDE              rotate the rank->key mapping
//   storm:START_US:END_US:KEYS:SHARE:SEED   append a hot-key storm window
//   replay:PATH                         replay a .csv trace instead of
//                                       synthesizing traffic
//
// Example: "ycsb-b+zipf:1.1+share:3+name:heavy+drift:5000:37".
// Each clause is decoded once, here: `fanout:` and `size:` become
// distribution objects and `replay:` loads its trace. Unset aspects (a
// negative theta, a null pointer, no mix) inherit the cluster-level
// configuration, so a default TenantSpec{} is the cluster's own workload.
//
// Multiple tenants share one cluster via a ';'-separated list of tenant
// specs ("ycsb-c+share:1;ycsb-a+share:4"). Each tenant owns an equal
// contiguous slice of the keyspace and an arrival-rate share proportional
// to its weight.
//
// The families are one constant table in registry.cpp; parse errors throw
// std::logic_error naming the clause (an unknown family lists the known
// ones), and a trace that cannot be loaded throws one naming the file.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/distributions.hpp"
#include "workload/mix.hpp"
#include "workload/multiget.hpp"
#include "workload/replay.hpp"

namespace das::workload {

/// Everything one tenant needs to generate traffic. Unset fields (negative
/// theta, null pointers, no mix) inherit the cluster-level defaults.
struct TenantSpec {
  /// Label used in per-tenant metrics and bench JSON; parse_tenants fills
  /// "t<index>" when a spec does not name itself.
  std::string name;
  /// Arrival-rate weight; tenant i receives share_i / sum(shares) of the
  /// cluster arrival rate.
  double share = 1.0;
  /// Key-popularity skew; < 0 inherits the cluster zipf_theta.
  double zipf_theta = -1.0;
  /// Multiget fan-out distribution; nullptr inherits the cluster fanout.
  IntDistPtr fanout;
  /// Value-size distribution, for the tenant's keys and its writes; nullptr
  /// inherits the cluster value size.
  RealDistPtr value_size;
  /// Operation mix; unset inherits the cluster write_fraction.
  std::optional<OpMix> mix;
  /// Popularity drift (rotation + storms); default stationary.
  DriftOptions drift{};
  /// Set: replay this loaded trace instead of synthesizing traffic.
  std::shared_ptr<const ReplayTrace> replay;
};

/// Parses a full '+'-joined tenant spec.
TenantSpec parse_tenant(const std::string& spec);

/// Parses a ';'-separated multi-tenant spec; fills default names ("t0",
/// "t1", ...) for tenants that did not set one. A bad `fanout:` or `size:`
/// distribution names its tenant: "tenants[1] ('t1') fanout: ...".
std::vector<TenantSpec> parse_tenants(const std::string& spec);

}  // namespace das::workload
