#include "workload/mix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace das::workload {
namespace {

TEST(OpMix, NamedYcsbMixes) {
  const OpMix a = parse_mix("ycsb-a");
  EXPECT_DOUBLE_EQ(a.read, 0.5);
  EXPECT_DOUBLE_EQ(a.update, 0.5);
  EXPECT_DOUBLE_EQ(a.rmw, 0.0);

  const OpMix b = parse_mix("ycsb-b");
  EXPECT_DOUBLE_EQ(b.read, 0.95);
  EXPECT_DOUBLE_EQ(b.update, 0.05);

  const OpMix c = parse_mix("ycsb-c");
  EXPECT_DOUBLE_EQ(c.read, 1.0);
  EXPECT_TRUE(c.read_only());

  const OpMix f = parse_mix("ycsb-f");
  EXPECT_DOUBLE_EQ(f.read, 0.5);
  EXPECT_DOUBLE_EQ(f.update, 0.0);
  EXPECT_DOUBLE_EQ(f.rmw, 0.5);
}

TEST(OpMix, ExplicitFractions) {
  const OpMix m = parse_mix("mix:0.7:0.2:0.1");
  EXPECT_DOUBLE_EQ(m.read, 0.7);
  EXPECT_DOUBLE_EQ(m.update, 0.2);
  EXPECT_DOUBLE_EQ(m.rmw, 0.1);
  EXPECT_FALSE(m.read_only());
}

TEST(OpMix, ReadOnlySamplingConsumesNoRandomness) {
  // Bit-identity guarantee: a read-only mix must not disturb the client's
  // RNG stream relative to the pre-mix workload path.
  const OpMix mix = parse_mix("ycsb-c");
  Rng rng{7};
  Rng untouched{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(mix.sample(rng), OpKind::kRead);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(OpMix, WriteMixConsumesExactlyOneDrawPerSample) {
  const OpMix mix = parse_mix("ycsb-a");
  Rng rng{7};
  Rng mirror{7};
  for (int i = 0; i < 100; ++i) {
    (void)mix.sample(rng);
    mirror.next_double();
  }
  EXPECT_EQ(rng.next_u64(), mirror.next_u64());
}

TEST(OpMix, SampleProportionsMatchFractions) {
  const OpMix mix = parse_mix("mix:0.6:0.3:0.1");
  Rng rng{42};
  int reads = 0, updates = 0, rmws = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    switch (mix.sample(rng)) {
      case OpKind::kRead: ++reads; break;
      case OpKind::kUpdate: ++updates; break;
      case OpKind::kRmw: ++rmws; break;
    }
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.6, 0.01);
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(rmws) / n, 0.1, 0.01);
}

TEST(OpMixNegative, MalformedSpecsThrow) {
  for (const char* spec :
       {"ycsb-z", "mix", "mix:0.5:0.5", "mix:0.5:0.5:0:0", "mix:a:0.5:0.5",
        "mix::0.5:0.5", "mix:0.5:0.5:0:", "mix:0.6:0.6:0.6", "mix:1.5:-0.5:0",
        "mix:-0.1:1.1:0", "mix:0.5:0.25:0.2", "mix: 0.5:0.5:0", "mix:nan:0.5:0.5"}) {
    EXPECT_THROW(parse_mix(spec), std::logic_error) << "accepted: " << spec;
  }
}

}  // namespace
}  // namespace das::workload
