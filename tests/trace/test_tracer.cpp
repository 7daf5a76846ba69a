#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/tracer.hpp"
#include "trace_lines.hpp"

namespace das::trace {
namespace {

using testing::event_lines;
using testing::field;

/// The non-metadata event lines of a finished trace.
std::vector<std::string> events_of(const std::string& json) {
  std::vector<std::string> out;
  for (const std::string& line : event_lines(json))
    if (field(line, "ph") != "\"M\"") out.push_back(line);
  return out;
}

TEST(Tracer, DefaultConfig) {
  std::ostringstream os;
  const Tracer tracer{os};
  EXPECT_EQ(tracer.cap(), 1u << 20);
  EXPECT_EQ(Tracer::kCounterStride, 16u);
  EXPECT_EQ(tracer.retained(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.offered(), 0u);
}

TEST(Tracer, ConfigIsValidated) {
  std::ostringstream os;
  EXPECT_THROW(Tracer(os, 0), std::logic_error);
}

TEST(Tracer, EmptyTraceIsWellFormed) {
  std::ostringstream os;
  Tracer tracer{os};
  tracer.finish();
  EXPECT_EQ(os.str(),
            "{\n  \"traceEvents\": [],\n  \"displayTimeUnit\": \"ms\",\n"
            "  \"otherData\": {\"tool\": \"dassim\", \"event_cap\": 1048576, "
            "\"dropped_events\": 0, \"counter_stride\": 16}\n}\n");
}

TEST(Tracer, CapDropAccounting) {
  std::ostringstream os;
  Tracer tracer{os, /*cap=*/4};
  for (int i = 0; i < 10; ++i)
    tracer.server_enqueue(static_cast<SimTime>(i), /*op=*/i, /*request=*/i,
                          /*server=*/0);
  tracer.finish();
  EXPECT_EQ(tracer.retained(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // retained + dropped = offered, always.
  EXPECT_EQ(tracer.offered(), 10u);
  // The written prefix is the FIRST events offered, in order.
  const std::vector<std::string> events = events_of(os.str());
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(field(events[i], "ts"), std::to_string(i));
  EXPECT_NE(os.str().find("\"event_cap\": 4, \"dropped_events\": 6"),
            std::string::npos);
}

TEST(Tracer, TypedEmittersFillThePayloadLayout) {
  std::ostringstream os;
  Tracer tracer{os};
  tracer.request_arrival(1.0, /*request=*/7, /*client=*/2, /*fanout=*/5);
  tracer.op_send(2.0, /*op=*/70, /*request=*/7, /*client=*/2, /*server=*/3,
                 /*demand_us=*/12.5, /*resend=*/true);
  tracer.op_defer(3.0, 70, 7, 3, /*est_other_completion=*/99.5);
  tracer.op_defer(3.5, 70, 7, 3, 99.5);  // already open: writes nothing
  tracer.op_rerank(4.0, 70, 7, 3, /*old_key=*/50.0, /*new_key=*/25.0);
  tracer.aging_promotion(5.0, 70, 7, 3, /*waited_us=*/44.0);
  tracer.service_start(6.0, 70, 7, 3, /*demand_us=*/12.5);  // closes defer
  tracer.request_complete(7.0, 7, 2, /*rct_us=*/6.0);
  tracer.counter_sample(8.0, /*server=*/3, /*backlog_us=*/123.0,
                        /*mu_hat=*/0.5, /*runnable=*/9, /*deferred=*/4);
  tracer.finish();
  EXPECT_EQ(tracer.retained(), 9u);

  const std::vector<std::string> expected = {
      R"(    {"ph": "b", "pid": 1000002, "tid": 0, "ts": 1, "cat": "request", "name": "request", "id": "7", "args": {"fanout": 5}})",
      R"(    {"ph": "s", "pid": 1000002, "tid": 0, "ts": 2, "cat": "op", "name": "op", "id": "70", "args": {"request": "7", "server": 3, "demand_us": 12.5, "resend": true}})",
      R"(    {"ph": "b", "pid": 4, "tid": 0, "ts": 3, "cat": "deferred", "name": "deferred", "id": "70", "args": {"request": "7", "est_other_completion": 99.5}})",
      R"(    {"ph": "i", "pid": 4, "tid": 1, "ts": 4, "s": "t", "name": "rerank", "args": {"op": "70", "old_key": 50, "new_key": 25}})",
      R"(    {"ph": "i", "pid": 4, "tid": 1, "ts": 5, "s": "t", "name": "aging_promotion", "args": {"op": "70", "waited_us": 44}})",
      R"(    {"ph": "e", "pid": 4, "tid": 0, "ts": 6, "cat": "deferred", "name": "deferred", "id": "70"})",
      R"(    {"ph": "B", "pid": 4, "tid": 0, "ts": 6, "name": "serve", "args": {"op": "70", "request": "7", "demand_us": 12.5}})",
      R"(    {"ph": "e", "pid": 1000002, "tid": 0, "ts": 7, "cat": "request", "name": "request", "id": "7", "args": {"rct_us": 6}})",
      R"(    {"ph": "C", "pid": 4, "tid": 0, "ts": 8, "name": "backlog_us", "args": {"backlog_us": 123}})",
      R"(    {"ph": "C", "pid": 4, "tid": 0, "ts": 8, "name": "mu_hat", "args": {"mu_hat": 0.5}})",
      R"(    {"ph": "C", "pid": 4, "tid": 0, "ts": 8, "name": "runnable", "args": {"runnable": 9}})",
      R"(    {"ph": "C", "pid": 4, "tid": 0, "ts": 8, "name": "deferred", "args": {"deferred": 4}})",
  };
  EXPECT_EQ(events_of(os.str()), expected);
}

TEST(Tracer, EventKindNamesAreStable) {
  // Fault, store and shed kinds are named in the rendered event.
  std::ostringstream os;
  Tracer tracer{os};
  tracer.fault_event(1.0, FaultTraceKind::kCrash, /*server=*/0, 1.0);
  tracer.fault_event(2.0, FaultTraceKind::kLossStart, kInvalidServer, 0.3);
  tracer.store_transition(3.0, StoreTraceKind::kCompactionStart, 0, 64.0);
  tracer.store_transition(4.0, StoreTraceKind::kWriteStallEnd, 0, 8.0);
  tracer.store_transition(5.0, StoreTraceKind::kFlush, 0, 8.0);
  tracer.op_shed(6.0, /*op=*/9, /*request=*/1, 0, OpShedReason::kQueueFull);
  tracer.op_shed(7.0, 9, 1, 0, OpShedReason::kSojourn);
  tracer.finish();
  std::vector<std::string> names;
  for (const std::string& line : events_of(os.str()))
    names.push_back(field(line, "name"));
  const std::vector<std::string> expected = {
      "\"fault:crash\"", "\"fault:loss_start\"", "\"compaction\"",
      "\"write_stall\"", "\"flush\"", "\"shed:queue_full\"", "\"shed:sojourn\""};
  EXPECT_EQ(names, expected);
}

TEST(Tracer, FinishOnAFailedStreamThrows) {
  std::ostringstream os;
  Tracer tracer{os};
  tracer.request_arrival(1.0, 1, 0, 1);
  os.setstate(std::ios::badbit);
  EXPECT_THROW(tracer.finish(), std::runtime_error);
}

}  // namespace
}  // namespace das::trace
