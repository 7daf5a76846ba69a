// Rein-SBF: Smallest Bottleneck First with priority quantisation and aging.
//
// Reimplementation of the scheduling core of Rein (Reda et al., EuroSys'17),
// the paper's published baseline. A multiget's *bottleneck* is its largest
// per-server slice (ops or demand-µs); requests with small bottlenecks jump
// ahead. Rein quantises priorities into a small number of levels (the
// production system used two) with FCFS inside a level, and promotes
// operations that have waited too long to avoid starving wide multigets.
// The quantisation threshold adapts as an EWMA of observed bottleneck sizes,
// so the split tracks the workload without manual tuning.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sched/scheduler_base.hpp"

namespace das::sched {

class ReinSbfScheduler final : public SchedulerBase {
 public:
  struct Options {
    std::size_t levels = 2;       // >= 2
    double threshold_alpha = 0.05;  // EWMA smoothing of mean bottleneck
    bool use_bytes = true;          // rank on demand-µs (true) or op count
    Duration max_wait_us = 50.0 * kMillisecond;  // aging promotion bound
  };

  explicit ReinSbfScheduler(Options options);

  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;

  /// Level an op with bottleneck `v` would be assigned right now (tests).
  std::size_t level_for(double v) const;
  double current_threshold() const { return ewma_bottleneck_; }

  MechanismCounters mechanism_counters() const override {
    return {0, 0, aging_promotions_, 0};
  }

 protected:
  void check_policy_invariants() const override;

 private:
  friend struct TestCorruptor;

  struct Queued {
    std::uint64_t arrival_seq;
    OpContext op;
  };

  Options options_;
  /// One FCFS queue per priority level. Arrival seqs rise along each level,
  /// so the globally oldest queued op is the level front with the smallest.
  std::vector<std::deque<Queued>> levels_;
  std::uint64_t next_arrival_seq_ = 0;
  double ewma_bottleneck_ = 0;
  bool seeded_ = false;
  std::uint64_t aging_promotions_ = 0;

  OpContext take(std::size_t level);
};

}  // namespace das::sched
