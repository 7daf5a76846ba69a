// A fixed reference workload that measures how fast the host runs right now.
//
// A shared host's speed drifts by tens of percent over minutes as other
// tenants come and go, and the drift shows in CPU time as well as wall time
// (the thread is not descheduled, it runs slower). The driver times this
// loop next to every experiment and scales the experiment's host times by
// kReferenceSeconds / (the loop's time), so they read as seconds on a host
// running at the reference speed. The loop uses only the standard library,
// never the simulator, so no change to the simulator can move it; it does
// the simulator's kind of work: a binary-heap event queue with random
// timestamps whose events read and write random slots of a table. The table
// and heap fit in a core's private cache, so the loop adds nothing to the
// peak resident set the benchmark reports.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "timing.hpp"

namespace perfbench {

/// The scale the host times are read in: about the loop's CPU time on the
/// host the benchmark was tuned on (Intel Xeon, 4 vCPUs) when it is quiet.
inline constexpr double kReferenceSeconds = 0.045;

/// One pass of the reference loop; returns a checksum so the work is kept.
inline std::uint64_t reference_pass() {
  constexpr std::size_t kTable = 1u << 16;   // 512 KB of 64-bit slots
  constexpr std::size_t kPending = 1u << 14;  // events in the heap
  constexpr int kEvents = 300'000;
  std::vector<std::uint64_t> table(kTable, 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, slot)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (std::size_t i = 0; i < kPending; ++i) {
    heap.emplace(next() & 0xffff, static_cast<std::uint32_t>(next() % kTable));
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    const auto [time, slot] = heap.top();
    heap.pop();
    sum += table[slot];
    table[(slot + next()) % kTable] += time;
    heap.emplace(time + 1 + (next() & 0xffff), static_cast<std::uint32_t>(next() % kTable));
  }
  return sum;
}

/// Mean CPU seconds of one pass of the reference loop, over at least five
/// passes and at least `at_least_s` CPU seconds of them. The mean, not the
/// fastest: an experiment's own time takes in the host's slow moments too.
inline double reference_seconds(double at_least_s = 0) {
  static volatile std::uint64_t sink = 0;
  double total = 0;
  int passes = 0;
  while (passes < 5 || total < at_least_s) {
    const double c0 = thread_cpu_seconds();
    sink = sink + reference_pass();
    total += thread_cpu_seconds() - c0;
    ++passes;
  }
  return total / passes;
}

}  // namespace perfbench
