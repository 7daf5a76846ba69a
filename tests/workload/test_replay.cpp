#include "workload/replay.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

namespace das::workload {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  out << content;
}

ReplayTrace sample_trace() {
  ReplayTrace trace;
  trace.records.push_back({0.0, ReplayOp::kRead, 7, 512});
  trace.records.push_back({12.5, ReplayOp::kWrite, 1042, 64});
  trace.records.push_back({12.5, ReplayOp::kRead, 3, 0});
  trace.records.push_back({99.25, ReplayOp::kWrite, 7, 4096});
  return trace;
}

void expect_equal(const ReplayTrace& a, const ReplayTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].timestamp_us, b.records[i].timestamp_us) << i;
    EXPECT_EQ(a.records[i].op, b.records[i].op) << i;
    EXPECT_EQ(a.records[i].key, b.records[i].key) << i;
    EXPECT_EQ(a.records[i].size_bytes, b.records[i].size_bytes) << i;
  }
}

TEST(ReplayTrace, CsvRoundTrip) {
  const std::string path = temp_path("round_trip.csv");
  const ReplayTrace trace = sample_trace();
  trace.save(path);
  expect_equal(trace, ReplayTrace::load(path));
}

TEST(ReplayTrace, MaxKey) {
  EXPECT_EQ(sample_trace().max_key(), 1042u);
  EXPECT_EQ(ReplayTrace{}.max_key(), 0u);
  EXPECT_TRUE(ReplayTrace{}.empty());
}

TEST(ReplayTrace, LoadRejectsUnknownExtension) {
  const std::string path = temp_path("trace.txt");
  write_file(path, "timestamp_us,op,key,size_bytes\n");
  EXPECT_THROW(ReplayTrace::load(path), std::logic_error);
}

TEST(ReplayTrace, LoadRejectsMissingFile) {
  EXPECT_THROW(ReplayTrace::load(temp_path("does_not_exist.csv")),
               std::logic_error);
}

TEST(ReplayTrace, CsvRejectsBadHeader) {
  const std::string path = temp_path("bad_header.csv");
  write_file(path, "time,op,key,size\n1,read,2,3\n");
  EXPECT_THROW(ReplayTrace::load(path), std::logic_error);
}

TEST(ReplayTrace, MalformedLinesThrowWithLineNumber) {
  const std::string header = "timestamp_us,op,key,size_bytes\n";
  struct Case {
    const char* label;
    const char* row;
  };
  const Case cases[] = {
      {"wrong field count", "1,read,2\n"},
      {"extra field", "1,read,2,3,4\n"},
      {"unknown op", "1,scan,2,3\n"},
      {"bad timestamp", "abc,read,2,3\n"},
      {"negative timestamp", "-1,read,2,3\n"},
      {"non-integer key", "1,read,2.5,3\n"},
      {"non-integer size", "1,read,2,3.7\n"},
      {"negative key", "1,read,-2,3\n"},
      {"empty field", "1,read,,3\n"},
  };
  for (const Case& c : cases) {
    const std::string path = temp_path("malformed.csv");
    write_file(path, header + std::string("0,read,1,1\n") + c.row);
    try {
      ReplayTrace::load(path);
      ADD_FAILURE() << "accepted " << c.label << ": " << c.row;
    } catch (const std::logic_error& e) {
      // The offending row is line 3 (header + one good row before it).
      EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos)
          << c.label << " message: " << e.what();
    }
  }
}

TEST(ReplayTrace, RejectsDecreasingTimestamps) {
  const std::string path = temp_path("decreasing.csv");
  write_file(path,
             "timestamp_us,op,key,size_bytes\n5,read,1,1\n4,read,2,1\n");
  try {
    ReplayTrace::load(path);
    ADD_FAILURE() << "accepted a time-travelling trace";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos) << e.what();
  }
  // Equal timestamps are fine (bursts).
  const std::string ties = temp_path("ties.csv");
  write_file(ties, "timestamp_us,op,key,size_bytes\n5,read,1,1\n5,read,2,1\n");
  EXPECT_EQ(ReplayTrace::load(ties).size(), 2u);
}

}  // namespace
}  // namespace das::workload
