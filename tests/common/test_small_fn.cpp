// SmallFn: SBO behavior, move-only semantics, heap fallback, lifetime.
#include "common/small_fn.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace das {
namespace {

TEST(SmallFn, DefaultIsEmpty) {
  SmallFn<64> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(fn == nullptr);
  EXPECT_FALSE(fn != nullptr);
  EXPECT_FALSE(fn.is_inline());
}

TEST(SmallFn, SmallLambdaStaysInline) {
  int hits = 0;
  SmallFn<64> fn{[&hits] { ++hits; }};
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, MoveTransfersOwnership) {
  int hits = 0;
  SmallFn<64> a{[&hits] { ++hits; }};
  SmallFn<64> b{std::move(a)};
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move): pinned state
  EXPECT_TRUE(b != nullptr);
  b();
  EXPECT_EQ(hits, 1);
  SmallFn<64> c;
  c = std::move(b);
  EXPECT_TRUE(b == nullptr);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, MoveOnlyCaptureWorks) {
  auto value = std::make_unique<int>(41);
  SmallFn<64> fn{[v = std::move(value)] { ++*v; }};
  SmallFn<64> moved{std::move(fn)};
  moved();  // must not crash; the unique_ptr moved along
}

TEST(SmallFn, OversizedCaptureFallsBackToHeap) {
  struct Big {
    char bytes[256];
  };
  Big big{};
  big.bytes[0] = 7;
  char seen = 0;
  SmallFn<64> fn{[big, &seen] { seen = big.bytes[0]; }};
  EXPECT_FALSE(fn.is_inline());
  EXPECT_TRUE(fn != nullptr);
  fn();
  EXPECT_EQ(seen, 7);
  // Heap-held callables relocate by pointer steal.
  SmallFn<64> moved{std::move(fn)};
  EXPECT_FALSE(moved.is_inline());
  moved();
}

TEST(SmallFn, ThrowingMoveFallsBackToHeap) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(const ThrowingMove&) = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  // Fits by size, but a throwing move would break the noexcept relocate the
  // event heap relies on, so it must live on the heap.
  static_assert(sizeof(ThrowingMove) <= 64);
  SmallFn<64> fn{ThrowingMove{}};
  EXPECT_FALSE(fn.is_inline());
  fn();
}

TEST(SmallFn, DestroyReleasesCapture) {
  auto tracked = std::make_shared<int>(0);
  EXPECT_EQ(tracked.use_count(), 1);
  {
    SmallFn<64> fn{[tracked] {}};
    EXPECT_EQ(tracked.use_count(), 2);
    fn = nullptr;  // reset destroys the capture immediately
    EXPECT_EQ(tracked.use_count(), 1);
    EXPECT_TRUE(fn == nullptr);
  }
  SmallFn<64> fn{[tracked] {}};
  SmallFn<64> other{[] {}};
  fn = std::move(other);  // reassignment destroys the old capture
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(SmallFn, AssignCallableConstructsInPlace) {
  int hits = 0;
  SmallFn<64> fn;
  fn = [&hits] { ++hits; };
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, CopyNeverHappens) {
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
    void operator()() const {}
  };
  int copies = 0;
  SmallFn<64> fn{CopyCounter{&copies}};
  SmallFn<64> b{std::move(fn)};
  SmallFn<64> c;
  c = std::move(b);
  c();
  EXPECT_EQ(copies, 0);
}

// The event-queue hot path must never heap-allocate. Messages travel as
// tickets, so the largest closures the simulator still schedules are the
// cluster's fault event and a replay tenant's arrival chain: pin that both
// fit inside the timer-sized EventFn's inline buffer.
TEST(SmallFn, HotPathClosureShapesStayInline) {
  fault::FaultEvent event;
  int sink = 0;
  int* self = &sink;
  sim::EventFn fault_like{[self, event] { *self += event.server != 0 ? 1 : 0; }};
  EXPECT_TRUE(fault_like.is_inline());
  const std::size_t tenant = 0;
  const std::size_t index = 0;
  const SimTime horizon = 0;
  sim::EventFn replay_like{[self, tenant, index, horizon] {
    *self += static_cast<int>(tenant + index + 1) + static_cast<int>(horizon);
  }};
  EXPECT_TRUE(replay_like.is_inline());
  sim::EventFn timer_like{[self] { ++*self; }};
  EXPECT_TRUE(timer_like.is_inline());
  fault_like();
  replay_like();
  timer_like();
  EXPECT_EQ(sink, 3);
}

TEST(SmallFn, CapacityIsReported) {
  EXPECT_EQ(SmallFn<64>::capacity(), 64u);
  EXPECT_EQ(sim::EventFn::capacity(), 56u);
  EXPECT_LE(sizeof(sim::EventFn), 64u);
}

}  // namespace
}  // namespace das
