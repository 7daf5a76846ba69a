#include "core/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace das::core {

namespace {

std::uint64_t& count_of(RequestCounts& counts, Settled how) {
  switch (how) {
    case Settled::kFailed:
      return counts.failed;
    case Settled::kShed:
      return counts.shed;
    case Settled::kExpired:
      return counts.expired;
  }
  DAS_CHECK_MSG(false, "unknown Settled kind");
  return counts.expired;
}

}  // namespace

RequestCounts& RequestCounts::operator+=(const RequestCounts& other) {
  generated += other.generated;
  completed += other.completed;
  failed += other.failed;
  shed += other.shed;
  expired += other.expired;
  return *this;
}

void Metrics::enable_timeline(Duration bucket_us) {
  DAS_CHECK(bucket_us >= 0);
  timeline_bucket_us_ = bucket_us;
}

void Metrics::enable_tenants(std::size_t count) {
  DAS_CHECK(count >= 1);
  tenant_rct_.assign(count, LatencyRecorder{1e9});
  tenant_counts_.assign(count, RequestCounts{});
  tenant_measured_.assign(count, RequestCounts{});
}

void Metrics::record_generated(SimTime arrival, std::uint32_t tenant) {
  ++tenant_counts_.at(tenant).generated;
  if (in_window(arrival)) ++tenant_measured_.at(tenant).generated;
}

void Metrics::record_request(SimTime arrival, SimTime completion, std::size_t fan,
                             std::uint32_t tenant) {
  DAS_CHECK(completion >= arrival);
  ++tenant_counts_.at(tenant).completed;
  if (timeline_bucket_us_ > 0) {
    const auto bucket = static_cast<std::size_t>(completion / timeline_bucket_us_);
    if (bucket >= timeline_buckets_.size()) timeline_buckets_.resize(bucket + 1);
    timeline_buckets_[bucket].add(completion - arrival);
  }
  if (!in_window(arrival)) return;
  ++tenant_measured_.at(tenant).completed;
  rct_.add(completion - arrival);
  fanout_.add(static_cast<double>(fan));
  tenant_rct_.at(tenant).add(completion - arrival);
}

void Metrics::record_unserved(Settled how, SimTime arrival, SimTime at,
                              std::uint32_t tenant) {
  DAS_CHECK(at >= arrival);
  ++count_of(tenant_counts_.at(tenant), how);
  if (timeline_bucket_us_ > 0) {
    std::vector<std::size_t>& column =
        timeline_unserved_.at(static_cast<std::size_t>(how));
    const auto bucket = static_cast<std::size_t>(at / timeline_bucket_us_);
    if (bucket >= column.size()) column.resize(bucket + 1);
    ++column[bucket];
  }
  if (in_window(arrival)) ++count_of(tenant_measured_.at(tenant), how);
}

RequestCounts Metrics::counts() const {
  RequestCounts total;
  for (const RequestCounts& c : tenant_counts_) total += c;
  return total;
}

RequestCounts Metrics::measured() const {
  RequestCounts total;
  for (const RequestCounts& c : tenant_measured_) total += c;
  return total;
}

std::vector<Metrics::TimelinePoint> Metrics::timeline() const {
  const auto column_at = [this](Settled how, std::size_t b) -> std::size_t {
    const auto& column = timeline_unserved_[static_cast<std::size_t>(how)];
    return b < column.size() ? column[b] : 0;
  };
  std::size_t buckets = timeline_buckets_.size();
  for (const auto& column : timeline_unserved_) {
    buckets = std::max(buckets, column.size());
  }
  std::vector<TimelinePoint> points;
  for (std::size_t b = 0; b < buckets; ++b) {
    const LatencyRecorder* rec =
        b < timeline_buckets_.size() ? &timeline_buckets_[b] : nullptr;
    TimelinePoint point;
    point.count = rec != nullptr ? rec->moments().count() : 0;
    point.failed = column_at(Settled::kFailed, b);
    point.shed = column_at(Settled::kShed, b);
    point.expired = column_at(Settled::kExpired, b);
    if (point.count == 0 && point.failed == 0 && point.shed == 0 &&
        point.expired == 0) {
      continue;
    }
    point.bucket_start = static_cast<double>(b) * timeline_bucket_us_;
    if (point.count > 0) {
      point.mean_rct = rec->moments().mean();
      point.p99_rct = rec->histogram().p99();
    }
    points.push_back(point);
  }
  return points;
}

void Metrics::record_operation(SimTime server_arrival, SimTime completion,
                               Duration wait) {
  DAS_CHECK(completion >= server_arrival);
  if (!in_window(server_arrival)) return;
  op_latency_.add(completion - server_arrival);
  op_wait_.add(wait);
}

}  // namespace das::core
