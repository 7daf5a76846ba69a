// Unit tests for the LSM service-time model (src/store/lsm_model.*): the
// flush/compaction/stall state machine, size-dependent read pricing, the
// interference control arm, crash semantics, and seeded bit-reproducibility
// — all by driving the model directly, no server required.
#include "store/lsm_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace das::store {
namespace {

/// The op-cost model the tests price in: 10 us per op plus 50 B/us.
constexpr ServiceCost kCost{10.0, 50.0};

/// Small memtable and low stall threshold so a handful of writes exercises
/// every transition; jitter off by default so window math is exact.
LsmOptions tiny_options() {
  LsmOptions o;
  o.memtable_bytes = 1024.0;
  o.entry_overhead_bytes = 0.0;
  o.l0_compaction_trigger = 2;
  o.compaction_bytes_per_us = 16.0;
  o.compaction_jitter = 0.0;
  o.compaction_capacity_factor = 0.5;
  o.stall_debt_bytes = 2048.0;
  o.stall_write_multiplier = 4.0;
  return o;
}

OpCostQuery write_op(KeyId key, Bytes bytes) {
  OpCostQuery q;
  q.key = key;
  q.is_write = true;
  q.size_bytes = bytes;
  return q;
}

OpCostQuery read_op(KeyId key, Bytes bytes) {
  OpCostQuery q;
  q.key = key;
  q.size_bytes = bytes;
  return q;
}

/// Completes `n` writes of `bytes` each at distinct keys starting at `first`,
/// advancing time by 1us per op.
SimTime pump_writes(LsmModel& m, std::size_t n, Bytes bytes, SimTime at,
                    KeyId first = 1000) {
  for (std::size_t i = 0; i < n; ++i) {
    m.on_op_complete(write_op(first + static_cast<KeyId>(i), bytes), at);
    at += 1.0;
  }
  return at;
}

TEST(LsmOptionsTest, ValidateNamesTheOffendingField) {
  LsmOptions o;
  EXPECT_NO_THROW(o.validate());
  o.compaction_capacity_factor = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LsmOptions{};
  o.stall_write_multiplier = 0.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LsmOptions{};
  o.compaction_jitter = 1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  EXPECT_THROW(LsmModel(o, kCost, 1), std::invalid_argument);  // ctor validates too
}

TEST(LsmModelTest, UnstalledWriteCostsExactlyTheOpCost) {
  LsmModel m{tiny_options(), kCost, 1};
  ASSERT_EQ(m.compaction_debt_bytes(), 0.0);
  ASSERT_FALSE(m.stalled());
  EXPECT_EQ(m.base_cost_us(write_op(1, 300), 0.0), kCost.op_us(300.0));
  EXPECT_EQ(kCost.op_us(300.0), 16.0);
}

TEST(LsmModelTest, MemtableHitIsCheaperThanLevelWalk) {
  LsmModel m{tiny_options(), kCost, 1};
  // Populate the memtable with key 7, then flush it out via filler writes.
  m.on_op_complete(write_op(7, 100), 0.0);
  const double hit = m.base_cost_us(read_op(7, 100), 1.0);
  // A miss (key never written) walks the levels of the same state.
  const double miss = m.base_cost_us(read_op(8, 100), 1.0);
  EXPECT_LT(hit, miss);
  // hit = overhead + bytes/rate * kMemtableReadFactor (0.25).
  EXPECT_DOUBLE_EQ(hit, 10.0 + (100.0 / 50.0) * 0.25);
  const StoreModelStats s = m.stats();
  EXPECT_EQ(s.memtable_hits, 1u);
  EXPECT_EQ(s.level_reads, 1u);
}

TEST(LsmModelTest, ReadCostIsMonotoneInSizeAndDepth) {
  LsmModel m{tiny_options(), kCost, 1};
  const double small = m.base_cost_us(read_op(1, 64), 0.0);
  const double large = m.base_cost_us(read_op(1, 4096), 0.0);
  EXPECT_LT(small, large);
  // Flush several runs (keep debt below the compaction end so runs linger):
  // more runs to search => costlier walk at the same size.
  LsmOptions deep = tiny_options();
  deep.l0_compaction_trigger = 100;  // never compacts in this test
  LsmModel d{deep, kCost, 1};
  const double shallow = d.base_cost_us(read_op(1, 4096), 0.0);
  pump_writes(d, 8, 512, 0.0);  // 4 flushes -> 4 L0 runs
  EXPECT_EQ(d.l0_runs(), 4u);
  const double deeper = d.base_cost_us(read_op(1, 4096), 10.0);
  EXPECT_GT(deeper, shallow);
}

TEST(LsmModelTest, FlushAccumulatesRunsAndTriggersCompaction) {
  LsmModel m{tiny_options(), kCost, 1};
  SimTime t = pump_writes(m, 2, 512, 0.0);  // fills 1024 -> first flush
  EXPECT_EQ(m.stats().flushes, 1u);
  EXPECT_EQ(m.l0_runs(), 1u);
  EXPECT_FALSE(m.compacting());  // below the 2-run trigger
  pump_writes(m, 2, 512, t);  // second flush -> trigger
  EXPECT_EQ(m.stats().flushes, 2u);
  EXPECT_TRUE(m.compacting());
  EXPECT_DOUBLE_EQ(m.compaction_debt_bytes(), 2048.0);
  m.check_invariants();
}

TEST(LsmModelTest, CompactionWindowDipsCapacityThenCloses) {
  LsmModel m{tiny_options(), kCost, 1};
  const SimTime t = pump_writes(m, 4, 512, 0.0);
  ASSERT_TRUE(m.compacting());
  EXPECT_DOUBLE_EQ(m.capacity_factor(t), 0.5);
  // Jitter is off: the window is exactly debt/rate = 2048/16 = 128us, anchored
  // at the second flush (time 3).
  EXPECT_DOUBLE_EQ(m.capacity_factor(3.0 + 127.9), 0.5);
  EXPECT_DOUBLE_EQ(m.capacity_factor(3.0 + 128.0), 1.0);
  EXPECT_FALSE(m.compacting());
  EXPECT_DOUBLE_EQ(m.compaction_debt_bytes(), 0.0);
  EXPECT_EQ(m.l0_runs(), 0u);
  const StoreModelStats s = m.stats();
  EXPECT_EQ(s.compactions, 1u);
  EXPECT_DOUBLE_EQ(s.compaction_busy_us, 128.0);
  EXPECT_DOUBLE_EQ(s.bytes_compacted, 2048.0);
  m.check_invariants();
}

TEST(LsmModelTest, WriteStallAmplifiesAndClearsWithHysteresis) {
  LsmOptions o = tiny_options();
  o.stall_debt_bytes = 2048.0;
  o.compaction_bytes_per_us = 1.0;  // slow drain: stall observable for long
  LsmModel m{o, kCost, 1};
  SimTime t = pump_writes(m, 4, 512, 0.0);  // 2 flushes, debt 2048 >= stall
  ASSERT_TRUE(m.stalled());
  EXPECT_EQ(m.stats().write_stalls, 1u);
  const double stalled_cost = m.base_cost_us(write_op(50, 100), t);
  EXPECT_DOUBLE_EQ(stalled_cost, (10.0 + 100.0 / 50.0) * 4.0);
  EXPECT_EQ(m.stats().stalled_write_ops, 1u);
  // The single window drains ALL outstanding debt when it closes, dropping
  // debt to 0 < threshold/2 — the stall exits with the window.
  m.capacity_factor(t + 5000.0);
  EXPECT_FALSE(m.stalled());
  EXPECT_GT(m.stats().write_stall_us, 0.0);
  const double normal_cost = m.base_cost_us(write_op(51, 100), t + 5000.0);
  EXPECT_DOUBLE_EQ(normal_cost, 10.0 + 100.0 / 50.0);
  m.check_invariants();
}

TEST(LsmModelTest, InterferenceOffDisablesDipsAndStallsOnly) {
  LsmOptions o = tiny_options();
  o.interference = false;
  LsmModel m{o, kCost, 1};
  const SimTime t = pump_writes(m, 4, 512, 0.0);
  // The state machine still runs (flushes, runs, debt)...
  EXPECT_EQ(m.stats().flushes, 2u);
  EXPECT_TRUE(m.compacting());
  // ...but neither the capacity dip nor the write stall applies.
  EXPECT_DOUBLE_EQ(m.capacity_factor(t), 1.0);
  EXPECT_FALSE(m.stalled());
  EXPECT_DOUBLE_EQ(m.base_cost_us(write_op(50, 100), t), 10.0 + 100.0 / 50.0);
  // Reads remain size/depth-dependent — the arm isolates interference, not
  // the storage cost structure.
  m.on_op_complete(write_op(77, 100), t);  // resident in the memtable
  EXPECT_LT(m.base_cost_us(read_op(77, 100), t + 1.0),
            m.base_cost_us(read_op(999, 100), t + 1.0));  // hit < walk
  m.check_invariants();
}

TEST(LsmModelTest, CrashLosesMemtableAndInterruptsCompaction) {
  LsmModel m{tiny_options(), kCost, 1};
  SimTime t = pump_writes(m, 4, 512, 0.0);
  m.on_op_complete(write_op(99, 100), t);  // partial memtable
  ASSERT_TRUE(m.compacting());
  ASSERT_GT(m.memtable_fill_bytes(), 0.0);
  m.on_crash(t + 1.0);
  EXPECT_DOUBLE_EQ(m.memtable_fill_bytes(), 0.0);
  EXPECT_FALSE(m.compacting());
  // Debt survives: the post-recovery instance must compact those runs again.
  EXPECT_DOUBLE_EQ(m.compaction_debt_bytes(), 2048.0);
  EXPECT_EQ(m.l0_runs(), 2u);
  // The dead key is no longer a memtable hit.
  m.base_cost_us(read_op(99, 100), t + 2.0);
  EXPECT_EQ(m.stats().level_reads, 1u);
  m.check_invariants();
  // Post-crash writes restart the machine cleanly.
  pump_writes(m, 2, 512, t + 3.0);
  EXPECT_TRUE(m.compacting());
  m.check_invariants();
}

TEST(LsmModelTest, FinalizeClosesOpenWindowsIdempotently) {
  LsmOptions o = tiny_options();
  o.compaction_bytes_per_us = 1.0;
  LsmModel m{o, kCost, 1};
  const SimTime t = pump_writes(m, 4, 512, 0.0);
  ASSERT_TRUE(m.compacting());
  ASSERT_TRUE(m.stalled());
  m.finalize(t + 100.0);
  const StoreModelStats once = m.stats();
  EXPECT_GT(once.compaction_busy_us, 0.0);
  EXPECT_GT(once.write_stall_us, 0.0);
  m.finalize(t + 100.0);  // same instant: nothing more to account
  EXPECT_DOUBLE_EQ(m.stats().compaction_busy_us, once.compaction_busy_us);
  EXPECT_DOUBLE_EQ(m.stats().write_stall_us, once.write_stall_us);
  m.check_invariants();
}

TEST(LsmModelTest, TransitionsRecordedOnlyWhenEnabled) {
  LsmModel quiet{tiny_options(), kCost, 1};
  pump_writes(quiet, 4, 512, 0.0);
  std::vector<StoreTransition> out;
  quiet.drain_transitions(out);
  EXPECT_TRUE(out.empty());  // recording off by default

  LsmModel traced{tiny_options(), kCost, 1};
  traced.set_record_transitions(true);
  pump_writes(traced, 4, 512, 0.0);
  traced.drain_transitions(out);
  // flush, flush+compaction-start at least; order is append order.
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out[0].kind, StoreTransitionKind::kFlush);
  bool saw_start = false;
  for (const StoreTransition& tr : out)
    saw_start |= tr.kind == StoreTransitionKind::kCompactionStart;
  EXPECT_TRUE(saw_start);
  traced.drain_transitions(out);  // drained: buffer now empty
  ASSERT_GE(out.size(), 3u);
}

TEST(LsmModelTest, SameSeedSameOpsBitIdentical) {
  LsmOptions o = tiny_options();
  o.compaction_jitter = 0.25;  // exercise the only random path
  LsmModel a{o, kCost, 42};
  LsmModel b{o, kCost, 42};
  LsmModel c{o, kCost, 43};
  // 50us between writes keeps compaction windows isolated (window <= 160us,
  // flush pairs 400us apart), so jittered durations are observable rather
  // than merging into one permanently-open window.
  SimTime t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const OpCostQuery w = write_op(static_cast<KeyId>(i), 300);
    const OpCostQuery r = read_op(static_cast<KeyId>(i / 2), 300);
    EXPECT_EQ(a.base_cost_us(w, t), b.base_cost_us(w, t));
    c.base_cost_us(w, t);
    a.on_op_complete(w, t + 1.0);
    b.on_op_complete(w, t + 1.0);
    c.on_op_complete(w, t + 1.0);
    EXPECT_EQ(a.base_cost_us(r, t + 2.0), b.base_cost_us(r, t + 2.0));
    EXPECT_EQ(a.capacity_factor(t + 2.0), b.capacity_factor(t + 2.0));
    t += 50.0;
  }
  a.finalize(t);
  b.finalize(t);
  c.finalize(t);
  EXPECT_EQ(a.stats().flushes, b.stats().flushes);
  EXPECT_EQ(a.stats().compactions, b.stats().compactions);
  EXPECT_EQ(a.compaction_debt_bytes(), b.compaction_debt_bytes());
  EXPECT_EQ(a.stats().compaction_busy_us, b.stats().compaction_busy_us);
  // A different jitter seed must actually shift the window durations.
  EXPECT_NE(a.stats().compaction_busy_us, c.stats().compaction_busy_us);
  a.check_invariants();
  c.check_invariants();
}

}  // namespace
}  // namespace das::store
