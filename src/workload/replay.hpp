// Trace replay: file-backed request streams.
//
// A replay trace is a flat list of timestamped single-key operations in a
// CSV file (`.csv`): the header `timestamp_us,op,key,size_bytes`, then one
// row per operation, e.g. `12.5,read,1042,512`.
//
// `op` is `read` or `write`; `size_bytes` is the value size (used as the
// write payload for writes and as the clients' size estimate for reads).
// Timestamps must be non-negative and non-decreasing; numeric fields are
// number tokens (common/parse.hpp), so one with whitespace is malformed.
// Loading is strict: any malformed line throws std::logic_error naming the
// line number — a corrupt trace must never silently run a different
// experiment.
//
// Iteration is deterministic and file-order: clients shard the record list
// by index stride, so the same trace file always produces the same
// simulation regardless of how many clients replay it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace das::workload {

enum class ReplayOp : std::uint8_t { kRead, kWrite };

struct ReplayRecord {
  SimTime timestamp_us = 0;
  ReplayOp op = ReplayOp::kRead;
  KeyId key = 0;
  Bytes size_bytes = 0;
};

struct ReplayTrace {
  std::vector<ReplayRecord> records;

  /// Loads a trace. Throws std::logic_error on a path without the .csv
  /// extension or on malformed content.
  static ReplayTrace load(const std::string& path);

  /// Writes the trace; the path must end in .csv.
  void save(const std::string& path) const;

  /// Largest key id referenced, or 0 for an empty trace.
  [[nodiscard]] KeyId max_key() const;
  [[nodiscard]] std::size_t size() const { return records.size(); }
  [[nodiscard]] bool empty() const { return records.empty(); }
};

}  // namespace das::workload
