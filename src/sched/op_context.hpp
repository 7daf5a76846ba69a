// The unit of scheduling: one key-value access operation.
//
// Clients tag every operation with the request-level metadata the policies
// consume; carrying all tags on every op (a few dozen bytes) is exactly the
// paper's "distributed" design point — no scheduler ever needs state that is
// not on the message or local to the server.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace das::sched {

struct OpContext {
  OperationId op_id = 0;
  RequestId request_id = 0;
  ClientId client = 0;
  KeyId key = 0;

  /// Service demand at nominal server speed (µs). Derived by the client from
  /// the value size plus per-op overhead.
  double demand_us = 0;

  /// When the end-user request arrived at the client (FCFS baseline key, and
  /// the anchor for RCT accounting).
  SimTime request_arrival = 0;

  /// --- DAS tags -----------------------------------------------------------
  /// The request's intrinsic critical-path remaining time (µs): the max over
  /// its pending operations of demand/mu_est(server). This is the SRPT-first
  /// ordering key — deliberately free of queueing-delay terms, which are the
  /// scheduler's own decision variable. Progress messages shrink it.
  double remaining_critical_us = 0;
  /// Earliest ABSOLUTE time the request could complete considering only its
  /// operations on OTHER servers (client view: tag time + rtt + est. delay +
  /// service). The LRPT-last deferral bound: while this lies beyond the local
  /// drain horizon, serving the op early cannot improve its request's RCT.
  /// 0 means "no siblings elsewhere — never defer".
  SimTime est_other_completion = 0;

  /// --- Rein-SBF tags ------------------------------------------------------
  /// Bottleneck size of the request: max per-server aggregate of the
  /// request's operations, in ops and in demand-µs. Rein ranks on the
  /// demand; the op count is tagged and priced on the wire all the same.
  std::uint32_t bottleneck_ops = 1;
  /// The key's catalogue size (0 = none: a miss), served unless a completed
  /// PUT overwrote the key on the server. Stamped by the client; bookkeeping
  /// in bottleneck_ops' padding that, like enqueued_at, is not on the wire.
  std::uint32_t catalogue_bytes = 0;
  double bottleneck_demand_us = 0;

  /// --- Request-SRPT tag ---------------------------------------------------
  /// Total service demand of the request across all servers (µs), frozen at
  /// send time; progress updates shrink it.
  double total_demand_us = 0;

  /// --- EDF tag ------------------------------------------------------------
  SimTime deadline = kTimeInfinity;

  /// --- overload control ---------------------------------------------------
  /// ENFORCED end-to-end expiry (request arrival + deadline budget), distinct
  /// from the EDF `deadline` above, which is only a priority key. Servers
  /// shed the op at dequeue once this passes (src/overload); kTimeInfinity =
  /// deadlines off. Transmitted on the wire only when the overload layer is
  /// active, so feature-off message sizes are unchanged.
  SimTime expiry = kTimeInfinity;

  /// --- write path -----------------------------------------------------------
  /// PUT instead of GET: the server stores `write_size` bytes under `key`.
  /// Schedulers treat reads and writes uniformly (priority follows demand).
  bool is_write = false;
  Bytes write_size = 0;

  /// Set by the server when the op joins its queue.
  SimTime enqueued_at = 0;

  /// Cumulative time spent parked in a deferred set, accumulated by the
  /// scheduler. Instrumentation for the RCT breakdown
  /// (trace/rct_breakdown.hpp), never a scheduling input, and — like
  /// enqueued_at — server-local state that is not transmitted.
  Duration deferred_wait_us = 0;
};

/// Client -> server progress notification: a sibling of `request` completed
/// and the client's estimates moved. One message per server still holding
/// pending operations of the request.
struct ProgressUpdate {
  /// New critical-path remaining time (request-global).
  double remaining_critical_us = 0;
  /// New earliest completion over the request's ops on servers OTHER than
  /// the destination (deferral bound; 0 = none elsewhere).
  SimTime est_other_completion = 0;
  /// New total remaining demand (request-global; the SRPT-first key).
  double remaining_total_us = 0;
};

}  // namespace das::sched
