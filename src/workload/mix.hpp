// Operation mixes: what fraction of requests read, update, or
// read-modify-write.
//
// A mix is a categorical distribution over {read, update, rmw} sampled once
// per request. Reads are multiget fan-outs, updates are write-all PUTs, and
// RMW is modeled as a write-all round whose per-replica demand includes both
// the read of the old value and the write of the new one (YCSB workload F's
// read-modify-write).
//
// Spec grammar (same colon style as distribution specs):
//   mix:READ:UPDATE:RMW   explicit fractions, must sum to 1 (±1e-9)
//   ycsb-a                50% read / 50% update
//   ycsb-b                95% read /  5% update
//   ycsb-c               100% read
//   ycsb-f                50% read / 50% read-modify-write
//
// Parse errors throw std::logic_error with a precise message.
#pragma once

#include <string>

#include "common/rng.hpp"

namespace das::workload {

/// Per-request operation kind drawn from an OpMix.
enum class OpKind : std::uint8_t { kRead, kUpdate, kRmw };

/// A categorical distribution over operation kinds.
struct OpMix {
  double read = 1.0;
  double update = 0.0;
  double rmw = 0.0;

  /// True when every request is a plain read (the legacy default).
  [[nodiscard]] bool read_only() const { return update <= 0.0 && rmw <= 0.0; }

  /// Draws one operation kind. Consumes exactly one uniform when the mix has
  /// any write component and zero draws when read-only, so read-only mixes
  /// stay bit-identical to the pre-mix workload path.
  [[nodiscard]] OpKind sample(Rng& rng) const;
};

/// Parses a mix spec ("ycsb-a" | "mix:R:U:M"). Throws std::logic_error on
/// malformed specs, unknown names, fractions outside [0,1], or fractions not
/// summing to 1.
OpMix parse_mix(const std::string& spec);

}  // namespace das::workload
