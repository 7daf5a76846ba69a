#include "store/lsm_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace das::store {

void LsmModel::drain_transitions(std::vector<StoreTransition>& out) {
  out.insert(out.end(), transitions_.begin(), transitions_.end());
  transitions_.clear();
}

void LsmModel::record(StoreTransitionKind kind, SimTime at, double debt_bytes) {
  if (!record_transitions_) return;
  transitions_.push_back(StoreTransition{kind, at, debt_bytes});
}

void LsmOptions::validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("LsmOptions: " + what);
  };
  if (memtable_bytes <= 0) reject("memtable_bytes must be > 0");
  if (entry_overhead_bytes < 0) reject("entry_overhead_bytes must be >= 0");
  if (l0_compaction_trigger == 0) reject("l0_compaction_trigger must be >= 1");
  if (compaction_bytes_per_us <= 0) reject("compaction_bytes_per_us must be > 0");
  if (compaction_jitter < 0 || compaction_jitter >= 1.0) {
    reject("compaction_jitter must be in [0, 1)");
  }
  if (compaction_capacity_factor <= 0 || compaction_capacity_factor > 1.0) {
    reject("compaction_capacity_factor must be in (0, 1]");
  }
  if (stall_debt_bytes <= 0) reject("stall_debt_bytes must be > 0");
  if (stall_write_multiplier < 1.0) reject("stall_write_multiplier must be >= 1");
}

LsmModel::LsmModel(LsmOptions options, ServiceCost cost, std::uint64_t seed)
    : options_(options), cost_(cost), rng_(seed) {
  options_.validate();
}

std::size_t LsmModel::read_levels() const {
  // Sorted-tree depth grows logarithmically in data at rest (fanout ~4 per
  // tier at simulation scale); L0 runs each add a full extra run to search.
  std::size_t sorted = 0;
  if (total_bytes_ > 0) {
    const double tiers =
        std::log2(1.0 + total_bytes_ / options_.memtable_bytes) / 2.0;
    sorted = 1 + static_cast<std::size_t>(tiers);
  }
  const std::size_t levels = l0_runs_ + sorted;
  return levels < kMaxReadLevels ? levels : kMaxReadLevels;
}

double LsmModel::base_cost_us(const OpCostQuery& q, SimTime now) {
  advance_to(now);
  const auto bytes = static_cast<double>(q.size_bytes);
  if (q.is_write) {
    // Appends are sequential: the base write is the nominal op cost; the
    // write controller amplifies it while compaction debt is stalling.
    double cost = cost_.op_us(bytes);
    if (stalled_) {
      cost *= options_.stall_write_multiplier;
      ++stats_.stalled_write_ops;
    }
    return cost;
  }
  if (memtable_keys_.contains(q.key)) {
    ++stats_.memtable_hits;
    return cost_.op_us(bytes, kMemtableReadFactor);
  }
  ++stats_.level_reads;
  return cost_.op_us(bytes,
                     1.0 + kLevelReadStep * static_cast<double>(read_levels()));
}

double LsmModel::capacity_factor(SimTime now) {
  advance_to(now);
  return compacting_ && options_.interference
             ? options_.compaction_capacity_factor
             : 1.0;
}

void LsmModel::on_op_complete(const OpCostQuery& q, SimTime now) {
  advance_to(now);
  if (!q.is_write) return;
  memtable_fill_ += static_cast<double>(q.size_bytes) +
                    options_.entry_overhead_bytes;
  memtable_keys_.insert(q.key);
  if (memtable_fill_ >= options_.memtable_bytes) flush_memtable(now);
}

void LsmModel::flush_memtable(SimTime now) {
  ++stats_.flushes;
  stats_.bytes_flushed += memtable_fill_;
  ++l0_runs_;
  debt_bytes_ += memtable_fill_;
  total_bytes_ += memtable_fill_;
  memtable_fill_ = 0;
  memtable_keys_.clear();
  record(StoreTransitionKind::kFlush, now, debt_bytes_);
  maybe_start_compaction(now);
  update_stall(now);
}

void LsmModel::maybe_start_compaction(SimTime at) {
  if (compacting_ || l0_runs_ < options_.l0_compaction_trigger) return;
  compacting_ = true;
  compaction_started_ = at;
  compaction_drain_bytes_ = debt_bytes_;
  compaction_drain_runs_ = l0_runs_;
  const double jitter = options_.compaction_jitter > 0
                            ? rng_.uniform(1.0 - options_.compaction_jitter,
                                           1.0 + options_.compaction_jitter)
                            : 1.0;
  const double duration =
      compaction_drain_bytes_ / options_.compaction_bytes_per_us * jitter;
  compaction_end_ = at + duration;
  ++stats_.compactions;
  record(StoreTransitionKind::kCompactionStart, at, debt_bytes_);
}

void LsmModel::update_stall(SimTime at) {
  if (!options_.interference) return;
  if (!stalled_ && debt_bytes_ >= options_.stall_debt_bytes) {
    stalled_ = true;
    stall_started_ = at;
    ++stats_.write_stalls;
    record(StoreTransitionKind::kWriteStallStart, at, debt_bytes_);
  } else if (stalled_ && debt_bytes_ < options_.stall_debt_bytes / 2.0) {
    // Hysteresis: leave the stall only once half the trigger debt drained,
    // so a write burst at the boundary does not flap the controller.
    stalled_ = false;
    stats_.write_stall_us += at - stall_started_;
    record(StoreTransitionKind::kWriteStallEnd, at, debt_bytes_);
  }
}

void LsmModel::advance_to(SimTime now) {
  while (compacting_ && now >= compaction_end_) {
    const SimTime ended = compaction_end_;
    stats_.compaction_busy_us += ended - compaction_started_;
    stats_.bytes_compacted += compaction_drain_bytes_;
    debt_bytes_ -= compaction_drain_bytes_;
    if (debt_bytes_ < 0) debt_bytes_ = 0;
    l0_runs_ = l0_runs_ >= compaction_drain_runs_
                   ? l0_runs_ - compaction_drain_runs_
                   : 0;
    compacting_ = false;
    compaction_drain_bytes_ = 0;
    compaction_drain_runs_ = 0;
    ++compactions_completed_;
    record(StoreTransitionKind::kCompactionEnd, ended, debt_bytes_);
    update_stall(ended);
    // Runs flushed while the window was open may already warrant the next
    // window, starting back-to-back at the previous window's end time.
    maybe_start_compaction(ended);
  }
}

void LsmModel::on_crash(SimTime now) {
  advance_to(now);
  // The memtable is volatile: its contents are lost with the process.
  memtable_fill_ = 0;
  memtable_keys_.clear();
  if (compacting_) {
    // The background job dies mid-rewrite; its input runs and debt remain
    // for the post-recovery instance to compact again.
    stats_.compaction_busy_us += now - compaction_started_;
    compacting_ = false;
    compaction_drain_bytes_ = 0;
    compaction_drain_runs_ = 0;
    record(StoreTransitionKind::kCompactionEnd, now, debt_bytes_);
  }
  if (stalled_) {
    stalled_ = false;
    stats_.write_stall_us += now - stall_started_;
    record(StoreTransitionKind::kWriteStallEnd, now, debt_bytes_);
  }
}

void LsmModel::finalize(SimTime now) {
  advance_to(now);
  if (compacting_ && now > compaction_started_) {
    // Close the open window in the stats only; rebase so finalize is
    // idempotent and a later advance does not double-count.
    stats_.compaction_busy_us += now - compaction_started_;
    compaction_started_ = now;
  }
  if (stalled_ && now > stall_started_) {
    stats_.write_stall_us += now - stall_started_;
    stall_started_ = now;
  }
}

StoreGauges LsmModel::gauges() const {
  StoreGauges g;
  g.memtable_fill_bytes = memtable_fill_;
  g.compaction_debt_bytes = debt_bytes_;
  g.l0_runs = l0_runs_;
  return g;
}

void LsmModel::check_invariants() const {
  DAS_AUDIT(memtable_fill_ >= 0, "memtable fill negative");
  DAS_AUDIT(memtable_fill_ < options_.memtable_bytes,
            "memtable fill at or above flush threshold between ops");
  DAS_AUDIT(debt_bytes_ >= 0, "compaction debt negative");
  DAS_AUDIT(total_bytes_ >= 0, "total bytes negative");
  if (compacting_) {
    DAS_AUDIT(compaction_end_ >= compaction_started_,
              "compaction window ends before it starts");
    DAS_AUDIT(compaction_drain_bytes_ <= debt_bytes_ + 1e-6,
              "compaction draining more than outstanding debt");
    DAS_AUDIT(compaction_drain_runs_ <= l0_runs_,
              "compaction consuming more runs than exist");
    DAS_AUDIT(compaction_drain_runs_ >= options_.l0_compaction_trigger,
              "compaction started below the L0 trigger");
  } else {
    DAS_AUDIT(compaction_drain_bytes_ == 0 && compaction_drain_runs_ == 0,
              "idle compaction holds drain state");
  }
  DAS_AUDIT(!stalled_ || options_.interference,
            "write stall active with interference disabled");
  DAS_AUDIT(stats_.bytes_compacted <= stats_.bytes_flushed + 1e-6,
            "compacted more bytes than were ever flushed");
  // Completed windows only: a crash-interrupted compaction leaves its runs
  // behind, so the same flushed runs legitimately fund another start.
  DAS_AUDIT(stats_.flushes >=
                compactions_completed_ * options_.l0_compaction_trigger,
            "more completed compactions than flushed runs allow");
  DAS_AUDIT(compactions_completed_ <= stats_.compactions,
            "completed more compactions than were started");
}

}  // namespace das::store
