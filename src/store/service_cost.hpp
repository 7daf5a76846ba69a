// The op-cost model: an operation costs a fixed overhead plus its bytes over
// the service rate (µs at nominal server speed).
//
// Clients tag every op with this demand, servers learn mu_hat as tagged
// demand over observed service time, the load calibration sizes the arrival
// rate by it, and the LSM model prices ops in it. All of them must agree, so
// the formula lives here and nowhere else.
#pragma once

namespace das::store {

struct ServiceCost {
  /// Fixed CPU cost per operation (µs).
  double overhead_us = 20.0;
  /// Value transfer/processing rate (bytes per µs).
  double bytes_per_us = 50.0;

  /// One op moving `bytes`, its byte cost scaled by `byte_factor` (the LSM
  /// read path's memtable discount or level-walk surcharge).
  double op_us(double bytes, double byte_factor = 1.0) const {
    return overhead_us + bytes / bytes_per_us * byte_factor;
  }
  /// A read-modify-write: two ops' overhead, `bytes` read plus written.
  double rmw_us(double bytes) const {
    return 2.0 * overhead_us + bytes / bytes_per_us;
  }
};

}  // namespace das::store
