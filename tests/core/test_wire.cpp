// Protocol size model: the byte budget charged to the network per message.
#include "core/wire.hpp"

#include <gtest/gtest.h>

namespace das::core::wire {
namespace {

// Each size includes the 4-byte checksum trailer.
TEST(Wire, SizesMatchTheFieldBudget) {
  sched::OpContext op;
  EXPECT_EQ(op_wire_size(op), 102u);
  op.expiry = 12345.5;  // a deadline adds the 8-byte expiry extension
  EXPECT_EQ(op_wire_size(op), 110u);

  OpResponse resp;
  resp.value_size = 1000;
  resp.hit = false;
  EXPECT_EQ(response_wire_size(resp), 71u);  // read miss: header only
  resp.hit = true;
  EXPECT_EQ(response_wire_size(resp), 71u + 1000u);  // read hit: plus payload
  resp.is_write = true;
  EXPECT_EQ(response_wire_size(resp), 71u);  // write ack: header only

  // Shed responses add one status byte and never carry a payload.
  for (const OpStatus status : {OpStatus::kBusy, OpStatus::kExpired}) {
    OpResponse shed;
    shed.status = status;
    EXPECT_EQ(response_wire_size(shed), 72u);
  }

  EXPECT_EQ(progress_wire_size(), 37u);
}

// The overload extensions are present only when active, so a run without
// deadlines or shedding is charged exactly the feature-off sizes.
TEST(Wire, OpExpiryExtensionIsLengthDerived) {
  sched::OpContext op;
  const std::size_t plain = op_wire_size(op);
  for (const SimTime expiry : {0.0, 12345.5, 1e9}) {
    op.expiry = expiry;
    EXPECT_EQ(op_wire_size(op), plain + 8);
  }
}

TEST(Wire, OkResponseCarriesNoStatusByte) {
  OpResponse ok;
  OpResponse busy;
  busy.status = OpStatus::kBusy;
  EXPECT_EQ(response_wire_size(busy), response_wire_size(ok) + 1);
}

TEST(Wire, ReadResponseChargesPayloadWriteAckDoesNot) {
  OpResponse resp;
  resp.hit = true;
  resp.is_write = false;
  resp.value_size = 1000;
  const std::size_t read_size = response_wire_size(resp);
  resp.is_write = true;
  const std::size_t write_size = response_wire_size(resp);
  EXPECT_EQ(read_size, write_size + 1000);
}

}  // namespace
}  // namespace das::core::wire
