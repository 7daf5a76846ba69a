#include "workload/replay.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"

namespace das::workload {

namespace {

constexpr const char* kHeader = "timestamp_us,op,key,size_bytes";

[[noreturn]] void bad_line(const std::string& path, std::size_t line_no,
                           const std::string& why) {
  throw std::logic_error("replay trace " + path + ":" +
                         std::to_string(line_no) + ": " + why);
}

void expect_csv(const std::string& path) {
  if (!path.ends_with(".csv")) {
    throw std::logic_error("replay trace '" + path +
                           "' has unknown extension (expected .csv)");
  }
}

double parse_number(const std::string& path, std::size_t line_no,
                    const std::string& field, const std::string& what) {
  const parse::Number<double> n = parse::real(field);
  switch (n.error) {
    case parse::Error::kNone:
      return n.value;
    case parse::Error::kEmpty:
      bad_line(path, line_no, "empty " + what);
    case parse::Error::kNonFinite:
      bad_line(path, line_no, "non-finite " + what + " '" + field + "'");
    default:
      bad_line(path, line_no, "bad " + what + " '" + field + "'");
  }
}

std::uint64_t parse_count(const std::string& path, std::size_t line_no,
                          const std::string& field, const std::string& what) {
  const double v = parse_number(path, line_no, field, what);
  if (v < 0 || v != std::floor(v) || v >= 0x1p64) {
    bad_line(path, line_no,
             what + " '" + field + "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

ReplayOp parse_op(const std::string& path, std::size_t line_no,
                  const std::string& field) {
  if (field == "read") return ReplayOp::kRead;
  if (field == "write") return ReplayOp::kWrite;
  bad_line(path, line_no, "unknown op '" + field + "' (expected read|write)");
}

}  // namespace

ReplayTrace ReplayTrace::load(const std::string& path) {
  expect_csv(path);
  std::ifstream in{path};
  if (!in.good()) throw std::logic_error("cannot open replay trace " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<std::string> lines = parse::split(text.str(), '\n');
  ReplayTrace trace;
  bool saw_header = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t line_no = i + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kHeader) {
        bad_line(path, line_no,
                 std::string("expected header '") + kHeader + "', got '" + line +
                     "'");
      }
      saw_header = true;
      continue;
    }
    const std::vector<std::string> fields = parse::split(line, ',');
    if (fields.size() != 4) {
      bad_line(path, line_no, "expected 4 comma-separated fields");
    }
    ReplayRecord rec;
    rec.timestamp_us = parse_number(path, line_no, fields[0], "timestamp_us");
    if (rec.timestamp_us < 0) bad_line(path, line_no, "negative timestamp_us");
    rec.op = parse_op(path, line_no, fields[1]);
    rec.key = parse_count(path, line_no, fields[2], "key");
    rec.size_bytes = parse_count(path, line_no, fields[3], "size_bytes");
    if (!trace.records.empty() &&
        rec.timestamp_us < trace.records.back().timestamp_us) {
      bad_line(path, line_no, "timestamps must be non-decreasing");
    }
    trace.records.push_back(rec);
  }
  if (!saw_header) {
    throw std::logic_error("replay trace " + path + " is empty (no header)");
  }
  return trace;
}

void ReplayTrace::save(const std::string& path) const {
  expect_csv(path);
  std::ofstream out{path};
  if (!out.good()) {
    throw std::runtime_error("cannot open replay trace for writing: " + path);
  }
  out.precision(17);
  out << kHeader << '\n';
  for (const ReplayRecord& rec : records) {
    out << rec.timestamp_us << ','
        << (rec.op == ReplayOp::kRead ? "read" : "write") << ',' << rec.key
        << ',' << rec.size_bytes << '\n';
  }
  if (!out.good()) throw std::runtime_error("short write to replay trace: " + path);
}

KeyId ReplayTrace::max_key() const {
  KeyId max = 0;
  for (const ReplayRecord& rec : records) max = std::max(max, rec.key);
  return max;
}

}  // namespace das::workload
