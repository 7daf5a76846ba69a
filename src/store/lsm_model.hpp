// Storage-aware service-time model: an LSM write/read cost engine.
//
// The simulator's synthetic mode charges every operation the client-computed
// nominal demand (overhead + bytes/rate). This subsystem grounds service
// time in storage behaviour instead: a per-server `LsmModel` tracks memtable
// fill, flush triggers, leveled compaction debt and background compaction
// windows, and prices each operation from that state —
//
//   * size-dependent reads: a memtable hit pays a fraction of the byte cost,
//     a level walk pays a surcharge per run/level searched;
//   * write-stall amplification: when compaction debt exceeds the stall
//     threshold, writes are slowed until the debt drains (RocksDB's
//     write-controller behaviour);
//   * compaction capacity dips: while a background compaction window is
//     open, the server's effective speed is multiplied by a factor < 1,
//     composed with the fault-plan slowdown through the single audited
//     Server::effective_speed() path.
//
// Schedulers and clients never see this model directly — only through the
// piggybacked mu_hat/backlog feedback, exactly like every other capacity
// fluctuation. The state machine is deterministic: it advances lazily on the
// server's dispatch/completion events (no simulator events of its own), and
// the only randomness is the seeded jitter on compaction window lengths.
// The cost structure mimics the NVM/flash behaviour of the IsoKV and DapDB
// reference file sets (see /root/related): cheap in-memory hits, costlier
// multi-run walks, background rewrites that steal device bandwidth.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace das::store {

/// One operation's cost query, built by the server from the op message and
/// its own stored sizes (the value size of a read is what the server holds,
/// not the client's estimate).
struct OpCostQuery {
  KeyId key = 0;
  bool is_write = false;
  /// Value bytes read or written (0 for a miss).
  Bytes size_bytes = 0;
  /// The client-side demand model's estimate (overhead + bytes/rate), kept
  /// for providers that want to price relative to the synthetic baseline.
  double nominal_demand_us = 0;
};

/// Store-model state transitions surfaced for tracing (compaction/stall
/// spans, flush instants). Only recorded when a tracer is attached — see
/// set_record_transitions — so untraced runs never touch the buffer.
enum class StoreTransitionKind : std::uint8_t {
  kCompactionStart,
  kCompactionEnd,
  kWriteStallStart,
  kWriteStallEnd,
  kFlush,
};

struct StoreTransition {
  StoreTransitionKind kind = StoreTransitionKind::kFlush;
  SimTime at = 0;
  /// Compaction debt outstanding at the transition (bytes).
  double debt_bytes = 0;
};

/// Counters a store model accumulates over a run (all zero for synthetic).
struct StoreModelStats {
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  /// Stall episodes entered / write ops served at stall-amplified cost.
  std::uint64_t write_stalls = 0;
  std::uint64_t stalled_write_ops = 0;
  std::uint64_t memtable_hits = 0;
  std::uint64_t level_reads = 0;
  double bytes_flushed = 0;
  double bytes_compacted = 0;
  /// Total time spent inside compaction windows / write-stall episodes (µs).
  double compaction_busy_us = 0;
  double write_stall_us = 0;
};

/// Instantaneous gauges for the sampled counter track in traces.
struct StoreGauges {
  double memtable_fill_bytes = 0;
  double compaction_debt_bytes = 0;
  std::size_t l0_runs = 0;
  bool compacting = false;
  bool stalled = false;
};

/// What the Server consults for each operation's base cost and for the
/// storage component of its effective speed. Implementations advance their
/// state lazily from the timestamps they are handed; they own no simulator
/// events and draw randomness only from their own seeded stream.
class ServiceTimeProvider : public Auditable {
 public:
  ~ServiceTimeProvider() override = default;

  /// Base cost of `q` at nominal server speed (µs), sampled at dispatch.
  virtual double base_cost_us(const OpCostQuery& q, SimTime now) = 0;

  /// Multiplicative capacity factor in (0, 1] at `now`; composed into
  /// Server::effective_speed() alongside the fault-plan slowdown.
  virtual double capacity_factor(SimTime now) = 0;

  /// An operation finished service; writes advance the memtable/flush state.
  virtual void on_op_complete(const OpCostQuery& q, SimTime now) = 0;

  /// Fail-stop crash: volatile state (memtable) is lost, background work is
  /// interrupted.
  virtual void on_crash(SimTime now) = 0;

  /// Run teardown: close open windows in the stats so busy-time accounting
  /// covers the whole run. Idempotent.
  virtual void finalize(SimTime now) = 0;

  virtual StoreModelStats stats() const = 0;
  virtual StoreGauges gauges() const = 0;

  /// Transition recording is off by default (zero overhead untraced); the
  /// server enables it when a tracer attaches.
  void set_record_transitions(bool on) { record_transitions_ = on; }
  /// Moves the recorded transitions into `out` (appended) and clears the
  /// internal buffer.
  void drain_transitions(std::vector<StoreTransition>& out);

 protected:
  void record(StoreTransitionKind kind, SimTime at, double debt_bytes);

 private:
  bool record_transitions_ = false;
  std::vector<StoreTransition> transitions_;
};

using ServiceTimeProviderPtr = std::unique_ptr<ServiceTimeProvider>;

struct LsmOptions {
  /// Service-model anchors, mirrored from the cluster config so LSM costs
  /// are expressed in the same currency as the synthetic demand model.
  double per_op_overhead_us = 20.0;
  double service_bytes_per_us = 50.0;

  /// Memtable flushes when fill (value bytes + per-entry overhead) reaches
  /// this. Sized for simulation-scale traffic, not production heaps.
  double memtable_bytes = 64.0 * 1024.0;
  double entry_overhead_bytes = 32.0;

  /// Compaction starts once this many flushed L0 runs accumulate.
  std::size_t l0_compaction_trigger = 2;
  /// Background compaction drains debt at this rate; the window length is
  /// debt/rate with ±`compaction_jitter` seeded jitter.
  double compaction_bytes_per_us = 16.0;
  double compaction_jitter = 0.1;
  /// Effective-speed multiplier while a compaction window is open.
  double compaction_capacity_factor = 0.6;

  /// Writes are amplified by `stall_write_multiplier` while compaction debt
  /// sits at or above `stall_debt_bytes` (cleared when the debt drains).
  double stall_debt_bytes = 256.0 * 1024.0;
  double stall_write_multiplier = 4.0;

  /// Read pricing: a memtable hit pays this fraction of the byte cost; a
  /// level walk pays (1 + level_read_step × runs/levels searched), capped at
  /// `max_read_levels` levels.
  double memtable_read_factor = 0.25;
  double level_read_step = 0.3;
  std::size_t max_read_levels = 8;

  /// false = the flush/compaction state machine still runs (reads stay
  /// size-dependent) but compaction windows cost nothing and writes never
  /// stall — the "compaction disabled" control arm of E20.
  bool interference = true;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class LsmModel final : public ServiceTimeProvider {
 public:
  /// `seed` feeds the jitter stream; two models with the same options, seed
  /// and op sequence produce bit-identical costs and windows.
  LsmModel(LsmOptions options, std::uint64_t seed);

  double base_cost_us(const OpCostQuery& q, SimTime now) override;
  double capacity_factor(SimTime now) override;
  void on_op_complete(const OpCostQuery& q, SimTime now) override;
  void on_crash(SimTime now) override;
  void finalize(SimTime now) override;
  StoreModelStats stats() const override { return stats_; }
  StoreGauges gauges() const override;

  /// Memtable fill below capacity, nonnegative debt, well-ordered compaction
  /// window, stall only with interference enabled, stats coherence.
  void check_invariants() const override;

  // Introspection for tests.
  const LsmOptions& options() const { return options_; }
  double memtable_fill_bytes() const { return memtable_fill_; }
  std::size_t l0_runs() const { return l0_runs_; }
  double compaction_debt_bytes() const { return debt_bytes_; }
  double total_bytes() const { return total_bytes_; }
  bool compacting() const { return compacting_; }
  bool stalled() const { return stalled_; }
  /// Runs/levels a non-memtable read searches right now.
  std::size_t read_levels() const;

 private:
  /// Lazily closes compaction windows that ended at or before `now` (and any
  /// back-to-back successor windows).
  void advance_to(SimTime now);
  void flush_memtable(SimTime now);
  void maybe_start_compaction(SimTime at);
  void update_stall(SimTime at);

  LsmOptions options_;
  Rng rng_;

  double memtable_fill_ = 0;
  /// Keys resident in the memtable (written since the last flush): these
  /// reads are hits that skip the level walk.
  FlatSet<KeyId> memtable_keys_;
  std::size_t l0_runs_ = 0;
  double debt_bytes_ = 0;
  /// Data at rest across all levels; drives the sorted-tree depth term.
  double total_bytes_ = 0;

  bool compacting_ = false;
  SimTime compaction_started_ = 0;
  SimTime compaction_end_ = 0;
  /// Debt and runs the open window will clear when it closes.
  double compaction_drain_bytes_ = 0;
  std::size_t compaction_drain_runs_ = 0;

  bool stalled_ = false;
  SimTime stall_started_ = 0;

  /// Windows that ran to completion (stats_.compactions counts starts; a
  /// crash can interrupt a window, leaving its runs to be compacted again).
  std::uint64_t compactions_completed_ = 0;

  StoreModelStats stats_;
};

}  // namespace das::store
