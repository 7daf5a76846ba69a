#include "sched/rein.hpp"

#include <cmath>

#include "trace/tracer.hpp"

namespace das::sched {

ReinSbfScheduler::ReinSbfScheduler(Options options) : options_(options) {
  DAS_CHECK(options_.levels >= 2);
  DAS_CHECK(options_.threshold_alpha > 0 && options_.threshold_alpha <= 1);
  DAS_CHECK(options_.max_wait_us > 0);
  levels_.resize(options_.levels);
}

void ReinSbfScheduler::check_policy_invariants() const {
  // Each level is FCFS: arrival seqs strictly rise front to back, which is
  // what lets aging find the globally oldest op among the level fronts.
  std::size_t queued = 0;
  for (const auto& level : levels_) {
    queued += level.size();
    for (std::size_t i = 0; i < level.size(); ++i) {
      DAS_AUDIT(level[i].op.demand_us >= 0, "queued op with negative demand");
      DAS_AUDIT(level[i].arrival_seq < next_arrival_seq_,
                "Rein arrival seq from the future");
      DAS_AUDIT(i == 0 || level[i - 1].arrival_seq < level[i].arrival_seq,
                "Rein level out of arrival order");
    }
  }
  DAS_AUDIT(queued == size(), "Rein level sizes drifted from accounting");
  DAS_AUDIT(ewma_bottleneck_ >= 0, "negative bottleneck threshold");
  DAS_AUDIT(seeded_ || size() == 0 || enqueued_total() == 0,
            "threshold never seeded despite arrivals");
}

std::size_t ReinSbfScheduler::level_for(double v) const {
  if (!seeded_ || ewma_bottleneck_ <= 0) return 0;
  // Geometric bands around the running mean: level 0 below the mean, then
  // one level per doubling. Matches Rein's "small multigets go first" split
  // for levels == 2 and generalises smoothly.
  if (v <= ewma_bottleneck_) return 0;
  const double ratio = v / ewma_bottleneck_;
  const auto level = static_cast<std::size_t>(1 + std::floor(std::log2(ratio)));
  return std::min(level, options_.levels - 1);
}

void ReinSbfScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);

  const double v = options_.use_bytes ? copy.bottleneck_demand_us
                                      : static_cast<double>(copy.bottleneck_ops);
  // Threshold adaptation sees every arrival, including ones routed to level 0.
  if (!seeded_) {
    ewma_bottleneck_ = v;
    seeded_ = true;
  } else {
    ewma_bottleneck_ += options_.threshold_alpha * (v - ewma_bottleneck_);
  }

  levels_[level_for(v)].push_back(Queued{next_arrival_seq_++, std::move(copy)});
}

OpContext ReinSbfScheduler::take(std::size_t level) {
  OpContext op = std::move(levels_[level].front().op);
  levels_[level].pop_front();
  note_out(op);
  return op;
}

OpContext ReinSbfScheduler::dequeue(SimTime now) {
  DAS_CHECK(!empty());
  // Aging: the globally oldest queued op is promoted past all levels once its
  // wait exceeds the bound.
  std::size_t oldest = levels_.size();
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].empty()) continue;
    if (oldest == levels_.size() ||
        levels_[level].front().arrival_seq < levels_[oldest].front().arrival_seq) {
      oldest = level;
    }
  }
  const OpContext& op = levels_[oldest].front().op;
  if (now - op.enqueued_at > options_.max_wait_us) {
    ++aging_promotions_;
    if (tracer_ != nullptr) {
      tracer_->aging_promotion(now, op.op_id, op.request_id, tracer_server_,
                               now - op.enqueued_at);
    }
    return take(oldest);
  }
  for (std::size_t level = 0;; ++level) {
    if (!levels_[level].empty()) return take(level);
  }
}

std::vector<OpContext> ReinSbfScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(size());
  // Level order, FCFS inside a level — the no-aging serve order.
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    while (!levels_[level].empty()) out.push_back(take(level));
  }
  return out;
}

}  // namespace das::sched
