// Trace replay: file-backed request streams.
//
// A replay trace is a flat list of timestamped single-key operations in one
// of two self-describing text formats, autodetected by file extension:
//
//   CSV  (.csv)    header `timestamp_us,op,key,size_bytes`, then one row per
//                  operation, e.g. `12.5,read,1042,512`
//   JSONL (.jsonl) one object per line:
//                  {"timestamp_us": 12.5, "op": "read", "key": 1042,
//                   "size_bytes": 512}
//
// `op` is `read` or `write`; `size_bytes` is the value size (used as the
// write payload for writes and as the clients' size estimate for reads).
// Timestamps must be non-negative and non-decreasing. Loading is strict:
// any malformed line throws std::logic_error naming the line number —
// a corrupt trace must never silently run a different experiment.
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

  /// Loads a trace, dispatching on extension (.csv / .jsonl). Throws
  /// std::logic_error on unknown extensions or malformed content.
  static ReplayTrace load(const std::string& path);
  static ReplayTrace load_csv(const std::string& path);
  static ReplayTrace load_jsonl(const std::string& path);

  /// Writes the trace in the format matching the extension.
  void save(const std::string& path) const;
  void save_csv(const std::string& path) const;
  void save_jsonl(const std::string& path) const;

  /// Largest key id referenced, or 0 for an empty trace.
  [[nodiscard]] KeyId max_key() const;
  [[nodiscard]] std::size_t size() const { return records.size(); }
  [[nodiscard]] bool empty() const { return records.empty(); }
};

}  // namespace das::workload
