#include "sched/rein.hpp"

#include "trace/tracer.hpp"

namespace das::sched {

ReinSbfScheduler::ReinSbfScheduler(Options options) : options_(options) {
  DAS_CHECK(options_.max_wait_us > 0);
}

void ReinSbfScheduler::check_policy_invariants() const {
  // Each lane is FCFS: arrival seqs strictly rise front to back, which is
  // what lets aging find the globally oldest op among the lane fronts.
  std::size_t queued = 0;
  for (const auto& lane : lanes_) {
    queued += lane.size();
    for (std::size_t i = 0; i < lane.size(); ++i) {
      DAS_AUDIT(lane[i].op.demand_us >= 0, "queued op with negative demand");
      DAS_AUDIT(lane[i].arrival_seq < next_arrival_seq_,
                "Rein arrival seq from the future");
      DAS_AUDIT(i == 0 || lane[i - 1].arrival_seq < lane[i].arrival_seq,
                "Rein lane out of arrival order");
    }
  }
  DAS_AUDIT(queued == size(), "Rein lane sizes drifted from accounting");
  DAS_AUDIT(ewma_bottleneck_ >= 0, "negative bottleneck threshold");
  DAS_AUDIT(seeded_ || size() == 0 || enqueued_total() == 0,
            "threshold never seeded despite arrivals");
}

std::size_t ReinSbfScheduler::lane_for(double v) const {
  // Unseeded (or a zero threshold): everything is high priority.
  return seeded_ && ewma_bottleneck_ > 0 && v > ewma_bottleneck_ ? 1 : 0;
}

void ReinSbfScheduler::enqueue(const OpContext& op, SimTime now) {
  OpContext copy = op;
  copy.enqueued_at = now;
  note_in(copy);

  const double v = copy.bottleneck_demand_us;
  // Threshold adaptation sees every arrival, including ones routed to lane 0.
  if (!seeded_) {
    ewma_bottleneck_ = v;
    seeded_ = true;
  } else {
    ewma_bottleneck_ += kThresholdAlpha * (v - ewma_bottleneck_);
  }

  lanes_[lane_for(v)].push_back(Queued{next_arrival_seq_++, std::move(copy)});
}

OpContext ReinSbfScheduler::take(std::size_t lane) {
  OpContext op = std::move(lanes_[lane].front().op);
  lanes_[lane].pop_front();
  note_out(op);
  return op;
}

OpContext ReinSbfScheduler::dequeue(SimTime now) {
  DAS_CHECK(!empty());
  // Aging: the globally oldest queued op (the lane front with the smaller
  // arrival seq) is promoted past the narrow lane once its wait exceeds the
  // bound.
  const std::size_t first = lanes_[0].empty() ? 1 : 0;
  std::size_t oldest = first;
  if (first == 0 && !lanes_[1].empty() &&
      lanes_[1].front().arrival_seq < lanes_[0].front().arrival_seq) {
    oldest = 1;
  }
  const OpContext& op = lanes_[oldest].front().op;
  if (now - op.enqueued_at > options_.max_wait_us) {
    ++aging_promotions_;
    if (tracer_ != nullptr) {
      tracer_->aging_promotion(now, op.op_id, op.request_id, tracer_server_,
                               now - op.enqueued_at);
    }
    return take(oldest);
  }
  return take(first);
}

std::vector<OpContext> ReinSbfScheduler::drain(SimTime) {
  std::vector<OpContext> out;
  out.reserve(size());
  // Lane order, FCFS inside a lane — the no-aging serve order.
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    while (!lanes_[lane].empty()) out.push_back(take(lane));
  }
  return out;
}

}  // namespace das::sched
