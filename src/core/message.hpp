// The client/server protocol's messages and the seam they travel through.
//
// An op travels as its sched::OpContext, a progress update as a
// sched::ProgressUpdate, and a response as the OpResponse below. Clients and
// servers never touch the network themselves: they hand each message to a
// Transport, which the cluster implements over net::Network and the unit
// tests fake.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sched/op_context.hpp"
#include "trace/rct_breakdown.hpp"

namespace das::core {

/// Outcome of an operation, as reported to the client. Non-OK statuses are
/// explicit overload signals — unlike a silent drop they arrive promptly and
/// still piggyback d_hat/mu_hat, so shedding FEEDS the learned view.
enum class OpStatus : std::uint8_t {
  kOk = 0,
  /// Shed by the server's QueueGuard: queue at cap (reject-new) or sojourn
  /// threshold exceeded (sojourn-drop). The op was not served.
  kBusy = 1,
  /// Dropped at dequeue because the request's end-to-end deadline had
  /// already passed — serving it would have been pure waste.
  kExpired = 2,
};

/// What a server sends back to the client when an operation completes.
/// `d_hat_us` / `mu_hat` are the piggybacked adaptive state: the advertised
/// queueing-delay estimate and the observed service speed (1.0 = nominal).
struct OpResponse {
  OperationId op_id = 0;
  RequestId request_id = 0;
  ClientId client = 0;
  ServerId server = 0;
  KeyId key = 0;
  Bytes value_size = 0;
  bool hit = false;
  bool is_write = false;
  SimTime completed_at = 0;
  double d_hat_us = 0;
  double mu_hat = 1.0;
  /// kOk unless the op was shed by the overload layer (in which case `hit`
  /// is false, no value travels, and the wire adds one status byte).
  OpStatus status = OpStatus::kOk;
  /// Server-side timing echo for the RCT breakdown. Out of band: carried on
  /// the simulated message object but EXCLUDED from the wire-size model
  /// (core/wire.hpp), so enabling the breakdown never changes net_bytes.
  trace::OpServiceTiming timing;
};

/// The one seam between the protocol's endpoints and the wire.
class Transport {
 public:
  /// Client -> server: `op` (from client op.client) to `server`.
  virtual void send_op(ServerId server, const sched::OpContext& op) = 0;
  /// Client -> server: a sibling of `request` finished at `client`.
  virtual void send_progress(ClientId client, ServerId server, RequestId request,
                             const sched::ProgressUpdate& update) = 0;
  /// Server -> client: the answer to one op (to client resp.client).
  virtual void send_response(const OpResponse& resp) = 0;

 protected:
  ~Transport() = default;
};

}  // namespace das::core
