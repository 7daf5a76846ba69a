#include "core/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace das::core {

void Metrics::enable_timeline(Duration bucket_us) {
  DAS_CHECK(bucket_us >= 0);
  timeline_bucket_us_ = bucket_us;
}

void Metrics::enable_tenants(std::size_t count) {
  DAS_CHECK(count >= 1);
  tenant_rct_.assign(count, LatencyRecorder{1e9});
  tenant_failures_measured_.assign(count, 0);
  tenant_shed_measured_.assign(count, 0);
  tenant_expired_measured_.assign(count, 0);
}

void Metrics::record_request(SimTime arrival, SimTime completion, std::size_t fan,
                             std::uint32_t tenant) {
  DAS_CHECK(completion >= arrival);
  if (timeline_bucket_us_ > 0) {
    const auto bucket = static_cast<std::size_t>(completion / timeline_bucket_us_);
    if (bucket >= timeline_buckets_.size()) timeline_buckets_.resize(bucket + 1);
    timeline_buckets_[bucket].add(completion - arrival);
  }
  if (!in_window(arrival)) return;
  rct_.add(completion - arrival);
  fanout_.add(static_cast<double>(fan));
  tenant_rct_.at(tenant).add(completion - arrival);
}

void Metrics::record_request_failure(SimTime arrival, SimTime failed_at,
                                     std::uint32_t tenant) {
  DAS_CHECK(failed_at >= arrival);
  if (timeline_bucket_us_ > 0) {
    const auto bucket = static_cast<std::size_t>(failed_at / timeline_bucket_us_);
    if (bucket >= timeline_failed_.size()) timeline_failed_.resize(bucket + 1);
    ++timeline_failed_[bucket];
  }
  if (!in_window(arrival)) return;
  ++failures_measured_;
  ++tenant_failures_measured_.at(tenant);
}

void Metrics::record_request_shed(SimTime arrival, SimTime shed_at,
                                  std::uint32_t tenant) {
  DAS_CHECK(shed_at >= arrival);
  if (timeline_bucket_us_ > 0) {
    const auto bucket = static_cast<std::size_t>(shed_at / timeline_bucket_us_);
    if (bucket >= timeline_shed_.size()) timeline_shed_.resize(bucket + 1);
    ++timeline_shed_[bucket];
  }
  if (!in_window(arrival)) return;
  ++shed_measured_;
  ++tenant_shed_measured_.at(tenant);
}

void Metrics::record_request_expired(SimTime arrival, SimTime expired_at,
                                     std::uint32_t tenant) {
  DAS_CHECK(expired_at >= arrival);
  if (timeline_bucket_us_ > 0) {
    const auto bucket =
        static_cast<std::size_t>(expired_at / timeline_bucket_us_);
    if (bucket >= timeline_expired_.size()) timeline_expired_.resize(bucket + 1);
    ++timeline_expired_[bucket];
  }
  if (!in_window(arrival)) return;
  ++expired_measured_;
  ++tenant_expired_measured_.at(tenant);
}

std::vector<Metrics::TimelinePoint> Metrics::timeline() const {
  std::vector<TimelinePoint> points;
  const std::size_t buckets =
      std::max({timeline_buckets_.size(), timeline_failed_.size(),
                timeline_shed_.size(), timeline_expired_.size()});
  for (std::size_t b = 0; b < buckets; ++b) {
    const LatencyRecorder* rec =
        b < timeline_buckets_.size() ? &timeline_buckets_[b] : nullptr;
    const std::size_t completed = rec != nullptr ? rec->moments().count() : 0;
    const std::size_t failed = b < timeline_failed_.size() ? timeline_failed_[b] : 0;
    const std::size_t shed = b < timeline_shed_.size() ? timeline_shed_[b] : 0;
    const std::size_t expired =
        b < timeline_expired_.size() ? timeline_expired_[b] : 0;
    if (completed == 0 && failed == 0 && shed == 0 && expired == 0) continue;
    TimelinePoint point;
    point.bucket_start = static_cast<double>(b) * timeline_bucket_us_;
    if (completed > 0) {
      point.mean_rct = rec->moments().mean();
      point.p99_rct = rec->histogram().p99();
    }
    point.count = completed;
    point.failed = failed;
    point.shed = shed;
    point.expired = expired;
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
