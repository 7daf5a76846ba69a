// Pluggable client-side replica selection.
//
// When a key is replicated, the client must choose ONE replica per read (and
// an alternate for hedges and failovers). That choice is a policy axis of its
// own, orthogonal to server-side scheduling: the same piggybacked d_hat/mu_hat
// feedback that drives DAS tagging gives the client a learned per-server view
// that selection strategies can exploit. This library owns that axis —
// `ReplicaSelector` is the strategy interface and `make_selector` the
// factory; the Client routes pick_server / arm_hedge / maybe_fail_over
// through one selector instance instead of three divergent inline scans.
//
// Determinism contract: selectors draw randomness ONLY from the `Rng&` the
// caller passes (the client's own workload stream, so the legacy modes stay
// bit-identical to the pre-layer builds — kRandom consumed exactly one
// `next_below` from it per pick and still does). Stateful selectors (tars)
// key their state deterministically and never read wall clocks.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace das::select {

/// How a client picks one replica to read from when replication > 1.
enum class Mode {
  /// Always the primary (placement-preference order head).
  kPrimary,
  /// Uniformly random replica per operation.
  kRandom,
  /// The replica with the lowest estimated completion under the client's
  /// learned per-server delay/speed view (C3-style replica ranking).
  kLeastDelay,
  /// Timeliness-aware adaptive selection with rate-bounded switching: sticks
  /// with the current replica of a key's replica group until another one's
  /// estimated completion beats it by a hysteresis margin AND a minimum
  /// dwell time has passed (Tars-style, driven by the piggybacked feedback).
  kTars,
  /// Power-of-two-choices: sample 2 distinct replicas uniformly, take the
  /// one with the lower estimated completion.
  kPowerOfD,
  /// C3-style cubic replica ranking: like least-delay, but the learned
  /// queueing-delay term is expressed in units of the op's own service time
  /// and CUBED, so a backlogged replica is penalised superlinearly and
  /// clients back off it before it saturates.
  kC3,
};

/// Canonical CLI token ("primary", "random", "least-delay", "tars",
/// "power-of-d", "c3").
const char* to_string(Mode mode);

/// Parses a CLI token (the exact strings of `to_string`). Returns false on an
/// unknown token, leaving `out` untouched.
bool mode_from_string(std::string_view token, Mode& out);

/// All modes, in enum order (CLI sweeps, test grids).
const std::vector<Mode>& all_modes();

/// How the load-calibration math should model a mode's steady-state replica
/// reads (see the hottest-server branch of Cluster::derived_request_rate).
enum class LoadShareModel {
  /// Every read of a key lands on its primary.
  kAllOnPrimary,
  /// Reads spread (approximately) evenly across the replica set. Exact for
  /// kRandom; an approximation for the view-driven modes, which chase the
  /// momentarily fastest replica but equalise in the homogeneous steady
  /// state the calibration assumes.
  kUniformSpread,
};
LoadShareModel load_share_model(Mode mode);

/// Non-owning snapshot of the client's learned per-server state. The pointed
/// vectors are indexed by ServerId and outlive any selector call.
struct LearnedView {
  const std::vector<double>* d_est = nullptr;
  const std::vector<double>* mu_est = nullptr;
  /// Failure-detector flags: non-zero = suspected (stopped answering).
  const std::vector<char>* suspected = nullptr;
  /// Round-trip allowance added to every completion estimate.
  Duration est_rtt_us = 0;
  /// False = static view (zero delay, nominal speed), the DAS-NA ablation.
  bool adaptive = true;

  bool suspects(ServerId s) const { return (*suspected)[s] != 0; }

  /// Estimated completion of an op of `demand` sent to `s` now (relative
  /// time): rtt + learned queueing delay + demand over learned speed. The
  /// evaluation order reproduces Client::full_estimate(0, ...) bit-for-bit.
  double completion_estimate(ServerId s, double demand) const {
    const double d = adaptive ? (*d_est)[s] : 0.0;
    const double mu = adaptive ? (*mu_est)[s] : 1.0;
    return est_rtt_us + d + demand / mu;
  }
};

/// Per-pick inputs beyond the candidate set.
struct SelectionContext {
  /// Intrinsic demand of the op (µs at nominal speed).
  double demand_us = 0;
  /// The key being read (stateful selectors group state by its replica set).
  KeyId key = 0;
  /// Current simulation time (rate-bounded switching needs it).
  SimTime now = 0;
};

/// Shared suspicion-aware ranking scan: the replica with the lowest
/// completion estimate, skipping `exclude` (pass kInvalidServer for none)
/// and, when `honor_suspicion` is set, any suspected replica. Ties break to
/// the FIRST replica in candidate order — the one historical tie-break all
/// call sites (pick, hedge, failover, all-suspected fallback) now share.
/// Returns kInvalidServer when no candidate survives the filters.
ServerId least_delay_scan(const std::vector<ServerId>& replicas,
                          const LearnedView& view, double demand,
                          ServerId exclude, bool honor_suspicion);

/// Strategy interface. One instance per client; calls are sequential within
/// a simulation, so implementations may keep state without locking.
class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  /// Picks the replica for a fresh read of `ctx.key` out of `replicas`
  /// (primary first, size >= 1). `rng` is the caller's stream; only
  /// randomised strategies draw from it.
  virtual ServerId pick(const std::vector<ServerId>& replicas,
                        const LearnedView& view, const SelectionContext& ctx,
                        Rng& rng) = 0;

  /// Picks the best replica OTHER than `exclude` for a hedge or failover:
  /// suspicion-aware least-delay with no fallback — duplicating load onto a
  /// server that stopped answering helps nobody, so when every other replica
  /// is suspected this returns kInvalidServer and the caller stays put.
  /// Deliberately shared by every strategy: an alternate is damage control,
  /// not steady-state placement, so it chases the fastest live replica
  /// regardless of how the primary path picks.
  virtual ServerId pick_alternate(const std::vector<ServerId>& replicas,
                                  const LearnedView& view,
                                  const SelectionContext& ctx, ServerId exclude);
};

/// Always the primary.
class PrimarySelector final : public ReplicaSelector {
 public:
  ServerId pick(const std::vector<ServerId>& replicas, const LearnedView& view,
                const SelectionContext& ctx, Rng& rng) override;
};

/// Uniform pick; suspicion-blind (matching the historical mode — hedges and
/// failovers still avoid suspects via pick_alternate).
class RandomSelector final : public ReplicaSelector {
 public:
  ServerId pick(const std::vector<ServerId>& replicas, const LearnedView& view,
                const SelectionContext& ctx, Rng& rng) override;
};

/// Lowest completion estimate among unsuspected replicas; when every replica
/// is suspected, falls back to the plain scan rather than refusing to send.
class LeastDelaySelector final : public ReplicaSelector {
 public:
  ServerId pick(const std::vector<ServerId>& replicas, const LearnedView& view,
                const SelectionContext& ctx, Rng& rng) override;
};

/// Timeliness-aware selection with rate-bounded switching (Tars-style).
///
/// Greedy least-delay re-ranks on every pick, so two clients chasing the same
/// momentarily-fast replica herd onto it and oscillate. Tars damps that: per
/// replica group (keyed by the primary) it remembers the current choice and
/// only switches when the challenger's estimated completion undercuts the
/// incumbent's by `kHysteresis` AND the incumbent has been held for at least
/// `kMinDwellUs`. A suspected incumbent is abandoned immediately —
/// liveness beats rate-bounding.
class TarsSelector final : public ReplicaSelector {
 public:
  /// Required relative improvement before switching: the challenger must
  /// beat the incumbent's estimate by this fraction.
  static constexpr double kHysteresis = 0.1;
  /// Minimum time between voluntary switches within one replica group.
  static constexpr Duration kMinDwellUs = 500.0;

  ServerId pick(const std::vector<ServerId>& replicas, const LearnedView& view,
                const SelectionContext& ctx, Rng& rng) override;

  std::uint64_t switches() const { return switches_; }

 private:
  struct GroupState {
    ServerId current = kInvalidServer;
    SimTime last_switch = 0;
  };
  /// Keyed by the group's primary replica — stable for a key across picks.
  FlatMap<ServerId, GroupState> state_;
  std::uint64_t switches_ = 0;
};

/// Power-of-d-choices: kChoices distinct unsuspected replicas sampled
/// uniformly (partial Fisher-Yates on the caller's stream), lowest completion
/// estimate wins, ties to the first sampled. All-suspected falls back to the
/// plain scan, like least-delay.
class PowerOfDSelector final : public ReplicaSelector {
 public:
  /// Replicas sampled per pick (d).
  static constexpr std::size_t kChoices = 2;

  ServerId pick(const std::vector<ServerId>& replicas, const LearnedView& view,
                const SelectionContext& ctx, Rng& rng) override;

 private:
  /// Scratch candidate indices, reused across picks (no per-pick allocation
  /// in steady state).
  std::vector<ServerId> eligible_;
};

/// C3-style cubic ranking (Suresh et al., NSDI'15). The score of replica s
/// for an op of demand δ is
///
///   rtt + service × (1 + q̂³),  service = δ/μ̂(s),  q̂ = d̂(s)/service
///
/// i.e. least-delay's linear backlog term d̂ is replaced by service×q̂³: a
/// replica whose learned queueing delay is several multiples of this op's
/// service time is penalised cubically, which empties concentration on a
/// momentarily-fast replica before it herds. Suspicion-aware with the same
/// all-suspected fallback as least-delay.
class C3Selector final : public ReplicaSelector {
 public:
  ServerId pick(const std::vector<ServerId>& replicas, const LearnedView& view,
                const SelectionContext& ctx, Rng& rng) override;
};

/// Factory for the configured mode.
std::unique_ptr<ReplicaSelector> make_selector(Mode mode);

}  // namespace das::select
