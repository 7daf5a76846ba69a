// Message sizes of the client/server protocol.
//
// The simulator ships no bytes — a message is a pooled struct whose ticket
// is delivered after a latency — so on the wire a message is its size: the byte budget of a fixed-layout
// little-endian encoding (doubles as IEEE-754 bit patterns) with a 4-byte
// checksum trailer. The cluster charges the network with these sizes
// (net_bytes) and the overhead study (E12) reports them.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "core/message.hpp"
#include "sched/op_context.hpp"

namespace das::core::wire {

namespace detail {

inline constexpr std::size_t kTrailer = 4;  // checksum

/// Operation request: kind, op/request ids, client, key, demand, arrival,
/// the DAS tags (remaining critical, est. other completion, bottleneck ops
/// and demand, total demand), deadline, write flag and write size.
inline constexpr std::size_t kOpFixed =
    1 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 8;
/// Response: kind, op/request ids, client, server, key, hit and write flags,
/// value size, completion time and the d_hat/mu_hat feedback.
inline constexpr std::size_t kResponseFixed =
    1 + 8 + 8 + 4 + 4 + 8 + 1 + 1 + 8 + 8 + 8 + 8;
/// Progress update: kind, request id, remaining critical, est. other
/// completion, remaining total.
inline constexpr std::size_t kProgressFixed = 1 + 8 + 8 + 8 + 8;

// Overload-control extensions are optional trailing fields, present only when
// the feature is active for the message, so feature-off sizes are unchanged.
inline constexpr std::size_t kOpExpiryExt = 8;        // f64 absolute expiry
inline constexpr std::size_t kResponseStatusExt = 1;  // u8 OpStatus

}  // namespace detail

inline std::size_t op_wire_size(const sched::OpContext& op) {
  return detail::kOpFixed + detail::kTrailer +
         (op.expiry != kTimeInfinity ? detail::kOpExpiryExt : 0);
}

/// Header plus the value payload for read hits (writes ack without data);
/// shed responses carry a status byte and never a payload.
inline std::size_t response_wire_size(const OpResponse& resp) {
  constexpr std::size_t kHeader = detail::kResponseFixed + detail::kTrailer;
  if (resp.status != OpStatus::kOk) return kHeader + detail::kResponseStatusExt;
  return kHeader + (resp.hit && !resp.is_write ? resp.value_size : 0);
}

inline constexpr std::size_t progress_wire_size() {
  return detail::kProgressFixed + detail::kTrailer;
}

}  // namespace das::core::wire
