// Deterministic fault-injection plans.
//
// A FaultPlan is a scripted timeline of fault events — server crashes and
// recoveries, gray-failure slowdown windows, per-link partitions, and
// cluster-wide loss bursts — that the Cluster executes through the Simulator.
// Plans come from two sources: a human-written CLI spec (parse_fault_plan,
// grammar below) and a seeded chaos generator (make_chaos_plan). Both are
// deterministic: the same spec or the same (options, seed) pair always yields
// the same plan, so every fault experiment replays bit-identically.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace das::fault {

/// What happens at one instant of the fault timeline.
enum class FaultKind {
  kCrash,      // fail-stop: server drops queued + in-flight ops, goes dark
  kRecover,    // crashed server comes back empty and answers again
  kSlowStart,  // gray failure: server speed multiplied by `factor` (< 1)
  kSlowEnd,    // gray-failure window closes; speed factor back to 1
  kPartition,  // client->server link (both directions) drops every message
  kHeal,       // partitioned link carries traffic again
  kLossStart,  // cluster-wide loss burst: every message dropped w.p. `factor`
  kLossEnd,    // loss burst ends
};

std::string to_string(FaultKind kind);

/// Wildcard for partition/heal events that cut a server off from every
/// client at once (`partition@20ms:*-s1`).
inline constexpr ClientId kAllClients = std::numeric_limits<ClientId>::max();

/// One scripted instant. `server` addresses crash/recover/slow/partition
/// events; `client` is only meaningful for partition/heal (kAllClients =
/// every client); `factor` carries the slowdown multiplier (kSlowStart) or
/// the burst loss probability (kLossStart).
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kCrash;
  ServerId server = kInvalidServer;
  ClientId client = kAllClients;
  double factor = 1.0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// True when the plan can destroy messages or queued work (crash,
  /// partition, or loss burst) — such plans require retransmission to keep
  /// the request accounting closed.
  bool loses_work() const;

  /// True when replaying the timeline leaves some server crashed or some
  /// link partitioned at the end — requests aimed there can never complete,
  /// so the client needs a bounded retry budget (or live replicas) to
  /// declare them failed instead of retrying forever.
  bool has_unrecovered_failure() const;

  /// Structural validation: event indices in range, factors sane, and
  /// per-target lifecycles alternate correctly (no double crash, no recover
  /// of an up server, no heal of an intact link, no nested slow or loss
  /// windows). Throws std::invalid_argument naming the offending event.
  void validate(std::uint32_t num_servers, std::uint32_t num_clients) const;
};

/// Parses the --faults CLI grammar: a comma-separated event list where each
/// token is one of
///   crash@T:sN            recover@T:sN
///   slow@T1-T2:sN:xF      (slowdown window, speed multiplied by F)
///   partition@T:cA-sB     heal@T:cA-sB      (cA may be * for all clients)
///   lossburst@T1-T2:pP    (loss burst window with drop probability P)
/// Times accept a `us` or `ms` suffix; a bare number means microseconds.
/// Times, ids and factors are number tokens (common/parse.hpp): no
/// whitespace, hex, sign on an id, inf or nan.
/// Throws std::invalid_argument naming the malformed token. Window forms
/// (slow, lossburst) expand to start/end event pairs.
FaultPlan parse_fault_plan(const std::string& spec);

/// Knobs for the seeded chaos generator. Counts are how many fault windows
/// of each kind to script inside [0, horizon_us); every window recovers
/// before the horizon so chaos plans always terminate under retry-forever.
struct ChaosOptions {
  double horizon_us = 0;
  std::uint32_t num_servers = 0;
  std::uint32_t num_clients = 0;
  std::uint32_t crashes = 0;
  std::uint32_t slowdowns = 0;
  std::uint32_t partitions = 0;
};

/// Deterministically scripts a random fault plan from (options, seed): crash
/// windows never overlap on the same server, slowdown factors land in
/// [0.15, 0.6], and every fault heals before options.horizon_us. The result
/// passes FaultPlan::validate for the given topology.
FaultPlan make_chaos_plan(const ChaosOptions& options, std::uint64_t seed);

}  // namespace das::fault
