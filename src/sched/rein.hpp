// Rein-SBF: Smallest Bottleneck First with two priority lanes and aging.
//
// Reimplementation of the scheduling core of Rein (Reda et al., EuroSys'17),
// the paper's published baseline. A multiget's *bottleneck* is its largest
// per-server slice in demand-µs; requests with small bottlenecks jump ahead.
// Like the production system, Rein quantises priorities into two lanes —
// bottlenecks at or below the threshold, and the rest — with FCFS inside a
// lane, and promotes operations that have waited too long to avoid starving
// wide multigets. The threshold is an EWMA of observed bottleneck sizes, so
// the split tracks the workload without manual tuning.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "sched/scheduler_base.hpp"

namespace das::sched {

class ReinSbfScheduler final : public SchedulerBase {
 public:
  struct Options {
    Duration max_wait_us = 50.0 * kMillisecond;  // aging promotion bound
  };

  /// EWMA gain of the bottleneck threshold.
  static constexpr double kThresholdAlpha = 0.05;

  explicit ReinSbfScheduler(Options options);

  void enqueue(const OpContext& op, SimTime now) override;
  OpContext dequeue(SimTime now) override;
  std::vector<OpContext> drain(SimTime now) override;

  /// Lane an op with bottleneck `v` would join right now: 0 (served first)
  /// at or below the threshold, 1 above it.
  std::size_t lane_for(double v) const;
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
  /// One FCFS queue per lane. Arrival seqs rise along each lane, so the
  /// globally oldest queued op is the lane front with the smaller one.
  std::array<std::deque<Queued>, 2> lanes_;
  std::uint64_t next_arrival_seq_ = 0;
  double ewma_bottleneck_ = 0;
  bool seeded_ = false;
  std::uint64_t aging_promotions_ = 0;

  OpContext take(std::size_t lane);
};

}  // namespace das::sched
