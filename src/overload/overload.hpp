// Overload control: bounded queues, deadline enforcement, admission control.
//
// The paper evaluates DAS only in the stable regime (load <= 0.9); above
// saturation an unprotected cluster accumulates unbounded backlog, every
// queued op is eventually served long after its requester stopped caring,
// and retry storms can push the system into a metastable state it never
// leaves. This library is the protection layer threaded through client,
// server and metrics:
//
//   QueueGuard (server side) — caps the scheduler backlog. An arriving op
//       that would push the queue past the cap is rejected with an explicit
//       BUSY response (which still carries d_hat/mu_hat, so rejection FEEDS
//       the learned view instead of looking like a loss). Under the
//       sojourn-drop policy the guard additionally sheds, at dequeue, ops
//       that waited longer than a CoDel-style sojourn threshold — keeping
//       the queue fresh so admitted work is young work.
//
//   Deadline enforcement — every request gets `deadline = arrival + budget`;
//       ops carry the absolute expiry on the wire and servers drop expired
//       ops at dequeue (serving them would be pure waste — Tars' timeliness
//       framing). Clients stop retrying past the deadline and fail the
//       request as EXPIRED. Request conservation extends to
//       generated == completed + failed + shed + expired.
//
//   AdmissionController (client side) — per-tenant AIMD throttle driven by
//       the BUSY/expiry rate: each success additively raises the tenant's
//       admit probability, each overload signal multiplicatively cuts it,
//       clamped to a fixed floor so one storming tenant cannot be
//       starved to zero (nor starve the others — its own storm traffic is
//       what gets shed).
//
// Determinism contract: no wall clocks, no global RNG. The admission coin
// flip draws from a dedicated client-owned stream forked off a COPY of the
// client's RNG, so feature-off runs are bit-identical to pre-layer builds.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace das::overload {

/// What a bounded queue does about excess work.
enum class RejectPolicy {
  /// Reject the ARRIVING op with BUSY when the queue is at cap.
  kRejectNew,
  /// Cap still rejects arrivals (hard backstop), but additionally every
  /// dequeued op that has waited longer than `sojourn_threshold_us` is shed
  /// as BUSY before service (CoDel-style head drop in the scheduler's own
  /// priority order): under sustained overload the queue serves young ops
  /// instead of a FIFO of zombies nobody is waiting for.
  kSojournDrop,
};

/// Canonical CLI token ("reject-new", "sojourn-drop").
const char* to_string(RejectPolicy policy);

/// Parses a CLI token (the exact strings of `to_string`). Returns false on
/// an unknown token, leaving `out` untouched.
bool policy_from_string(std::string_view token, RejectPolicy& out);

/// The overload-control layer's knobs. Everything defaults OFF: a
/// default-constructed config reproduces the unprotected system bit-for-bit.
struct OverloadConfig {
  /// Maximum ops queued per server, 0 = unbounded (feature off).
  std::size_t queue_cap = 0;
  /// What a bounded queue does about excess work.
  RejectPolicy reject_policy = RejectPolicy::kRejectNew;
  /// Sojourn threshold for kSojournDrop; 0 derives 2x the deadline budget
  /// when deadlines are on, else 10ms.
  Duration sojourn_threshold_us = 0;
  /// End-to-end request deadline budget, 0 = no deadlines (feature off).
  Duration deadline_budget_us = 0;
  /// Client-side AIMD admission control on/off.
  bool admission = false;

  bool bounded() const { return queue_cap > 0; }
  bool deadlines() const { return deadline_budget_us > 0; }
  /// True when ANY protection is active (feature gates + wire extensions).
  bool enabled() const { return bounded() || deadlines() || admission; }

  /// The sojourn threshold actually enforced (resolves the 0 default).
  Duration effective_sojourn_us() const;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Server-side queue protection: owns the accept/shed decisions and the shed
/// counters. One instance per server; decisions are pure functions of the
/// config plus the caller-provided queue state, so the guard stays trivially
/// auditable.
class QueueGuard final : public Auditable {
 public:
  explicit QueueGuard(const OverloadConfig& config) : config_(config) {}

  /// True when the arriving op must be rejected BUSY: bounded queue at cap.
  /// (`queue_size` is the scheduler's size BEFORE the insert.)
  bool should_reject(std::size_t queue_size) const {
    return config_.bounded() && queue_size >= config_.queue_cap;
  }

  /// True when a dequeued op must be shed for over-long sojourn
  /// (kSojournDrop only).
  bool should_drop_sojourn(SimTime now, SimTime enqueued_at) const {
    return config_.bounded() &&
           config_.reject_policy == RejectPolicy::kSojournDrop &&
           now - enqueued_at > config_.effective_sojourn_us();
  }

  /// True when a dequeued op is past its end-to-end expiry.
  bool is_expired(SimTime now, SimTime expiry) const {
    return config_.deadlines() && expiry < now;
  }

  void note_rejected() { ++rejected_busy_; }
  void note_sojourn_drop() { ++dropped_sojourn_; }
  void note_expired() { ++expired_; }

  std::uint64_t rejected_busy() const { return rejected_busy_; }
  std::uint64_t dropped_sojourn() const { return dropped_sojourn_; }
  std::uint64_t expired() const { return expired_; }
  /// Every op the guard kept out of service.
  std::uint64_t total_shed() const {
    return rejected_busy_ + dropped_sojourn_ + expired_;
  }

  const OverloadConfig& config() const { return config_; }

  void check_invariants() const override;

 private:
  OverloadConfig config_;
  std::uint64_t rejected_busy_ = 0;    ///< arrivals rejected at cap
  std::uint64_t dropped_sojourn_ = 0;  ///< dequeues shed for sojourn
  std::uint64_t expired_ = 0;          ///< dequeues shed for expiry
};

/// Client-side per-tenant AIMD admission throttle.
///
/// Each tenant holds an admit probability in [floor, 1], starting at 1.
/// Completed requests raise it additively; overload signals (BUSY rejection,
/// request expiry) cut it multiplicatively. Dispatch flips a coin per
/// request on the caller's dedicated stream — a refused request is SHED
/// client-side before any op is sent, which is the whole point: under
/// sustained overload the shedding moves from the server queue (after
/// paying network + queueing) to the client (free).
class AdmissionController final : public Auditable {
 public:
  /// Admission probability never drops below this floor (per tenant).
  static constexpr double kFloor = 0.05;
  /// Additive increase per successfully completed request.
  static constexpr double kIncrease = 0.02;
  /// Multiplicative decrease factor per overload signal (BUSY / expiry).
  static constexpr double kDecrease = 0.5;

  explicit AdmissionController(std::size_t tenant_count);

  /// One coin flip on `rng` (exactly one uniform draw per call).
  /// True = dispatch the request, false = shed it.
  bool admit(std::size_t tenant, Rng& rng);

  /// A request of `tenant` completed inside its deadline.
  void on_success(std::size_t tenant);

  /// A request of `tenant` hit an overload signal (BUSY or expiry).
  void on_overload(std::size_t tenant);

  double rate(std::size_t tenant) const { return rate_[tenant]; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t refused() const { return refused_; }

  void check_invariants() const override;

 private:
  std::vector<double> rate_;  ///< per-tenant admit probability
  std::uint64_t admitted_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace das::overload
