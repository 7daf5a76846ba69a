// Unit tests for the pluggable replica-selection layer (src/select): the
// tie-break contract every scan shares, the suspicion fallbacks, tars'
// rate-bounded switching and power-of-d's sampling — all against a
// hand-built LearnedView, no cluster required.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "select/selector.hpp"

namespace das::select {
namespace {

/// Owning test double for the non-owning LearnedView.
struct ViewFixture {
  std::vector<double> d_est;
  std::vector<double> mu_est;
  std::vector<char> suspected;
  double est_rtt_us = 10.0;
  bool adaptive = true;

  explicit ViewFixture(std::size_t servers)
      : d_est(servers, 0.0), mu_est(servers, 1.0), suspected(servers, 0) {}

  LearnedView view() const {
    LearnedView v;
    v.d_est = &d_est;
    v.mu_est = &mu_est;
    v.suspected = &suspected;
    v.est_rtt_us = est_rtt_us;
    v.adaptive = adaptive;
    return v;
  }
};

const SelectionContext kCtx{/*demand_us=*/40.0, /*key=*/7, /*now=*/1000.0};

TEST(ModeStrings, RoundTripAndRejectUnknown) {
  for (const Mode mode : all_modes()) {
    Mode parsed = Mode::kPrimary;
    EXPECT_TRUE(mode_from_string(to_string(mode), parsed)) << to_string(mode);
    EXPECT_EQ(parsed, mode);
  }
  Mode out = Mode::kRandom;
  EXPECT_FALSE(mode_from_string("cubic", out));
  EXPECT_EQ(out, Mode::kRandom);  // untouched on failure
  EXPECT_EQ(all_modes().size(), 6u);
}

TEST(LoadShareModelTest, OnlyPrimaryConcentrates) {
  EXPECT_EQ(load_share_model(Mode::kPrimary), LoadShareModel::kAllOnPrimary);
  for (const Mode mode : all_modes()) {
    if (mode == Mode::kPrimary) continue;
    EXPECT_EQ(load_share_model(mode), LoadShareModel::kUniformSpread)
        << to_string(mode);
  }
}

TEST(LearnedViewTest, CompletionEstimateMatchesClientFormula) {
  ViewFixture f(2);
  f.d_est[1] = 30.0;
  f.mu_est[1] = 0.5;
  const LearnedView v = f.view();
  EXPECT_DOUBLE_EQ(v.completion_estimate(0, 40.0), 10.0 + 0.0 + 40.0 / 1.0);
  EXPECT_DOUBLE_EQ(v.completion_estimate(1, 40.0), 10.0 + 30.0 + 40.0 / 0.5);
  // Non-adaptive: static view regardless of the learned numbers.
  f.adaptive = false;
  EXPECT_DOUBLE_EQ(f.view().completion_estimate(1, 40.0), 10.0 + 40.0);
}

// --- the shared scan: tie-break parity ---------------------------------------

TEST(LeastDelayScan, TiesBreakToTheFirstReplica) {
  // All-equal estimates: the FIRST candidate must win, both with and
  // without the suspicion filter — the single tie-break the fallback path
  // used to duplicate with differently-structured code (PR-7 satellite).
  ViewFixture f(4);
  const std::vector<ServerId> replicas = {2, 0, 3};
  const LearnedView v = f.view();
  EXPECT_EQ(least_delay_scan(replicas, v, 40.0, kInvalidServer, true), 2u);
  EXPECT_EQ(least_delay_scan(replicas, v, 40.0, kInvalidServer, false), 2u);
  // All suspected: the suspicion-honouring scan finds nobody, the plain one
  // still returns the first — identical tie-break in the fallback.
  f.suspected.assign(4, 1);
  const LearnedView vs = f.view();
  EXPECT_EQ(least_delay_scan(replicas, vs, 40.0, kInvalidServer, true),
            kInvalidServer);
  EXPECT_EQ(least_delay_scan(replicas, vs, 40.0, kInvalidServer, false), 2u);
}

TEST(LeastDelayScan, StrictImprovementWinsAndExcludeIsHonoured) {
  ViewFixture f(3);
  f.d_est[1] = -1.0;  // strictly better than replica 0
  const std::vector<ServerId> replicas = {0, 1, 2};
  EXPECT_EQ(least_delay_scan(replicas, f.view(), 40.0, kInvalidServer, true), 1u);
  EXPECT_EQ(least_delay_scan(replicas, f.view(), 40.0, /*exclude=*/1, true), 0u);
  // Excluding everything yields no pick.
  EXPECT_EQ(least_delay_scan({1}, f.view(), 40.0, 1, true), kInvalidServer);
}

// --- per-strategy picks ------------------------------------------------------

TEST(PrimarySelectorTest, AlwaysTheFront) {
  ViewFixture f(4);
  f.d_est[2] = -100.0;  // even a "faster" replica does not tempt it
  PrimarySelector sel;
  Rng rng{1};
  EXPECT_EQ(sel.pick({3, 2, 1}, f.view(), kCtx, rng), 3u);
}

TEST(RandomSelectorTest, DrawsExactlyOneFromTheCallerStream) {
  ViewFixture f(4);
  RandomSelector sel;
  const std::vector<ServerId> replicas = {0, 1, 2};
  Rng rng{42};
  Rng reference{42};
  const ServerId picked = sel.pick(replicas, f.view(), kCtx, rng);
  EXPECT_EQ(picked, replicas[reference.next_below(replicas.size())]);
  // Exactly one draw consumed: the streams stay in lockstep.
  EXPECT_EQ(rng.next_u64(), reference.next_u64());
}

TEST(LeastDelaySelectorTest, SkipsSuspectsAndFallsBackWhenAllSuspected) {
  ViewFixture f(3);
  f.d_est = {50.0, 5.0, 20.0};
  LeastDelaySelector sel;
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1, 2};
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 1u);
  f.suspected[1] = 1;
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 2u);
  f.suspected.assign(3, 1);
  // All suspected: plain ranking rather than refusing to send.
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 1u);
}

TEST(TarsSelectorTest, HysteresisDampsSwitching) {
  ViewFixture f(2);
  TarsSelector sel;
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1};

  SelectionContext ctx{40.0, 7, 0.0};
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);  // first pick: best

  // The incumbent's estimate is 50; a challenger must come in under
  // 50 * (1 - 0.1) = 45. At 46, and at exactly 45, there is no switch.
  ctx.now = 1000.0;  // well past the dwell time
  f.d_est[1] = -4.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);
  f.d_est[1] = -5.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);
  EXPECT_EQ(sel.switches(), 0u);

  // Decisively better: 44 < 45.
  f.d_est[1] = -6.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 1u);
  EXPECT_EQ(sel.switches(), 1u);
}

TEST(TarsSelectorTest, DwellTimeRateBoundsSwitching) {
  ViewFixture f(2);
  TarsSelector sel;  // 500us dwell
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1};

  SelectionContext ctx{40.0, 7, 0.0};
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);

  // Replica 1 decisively better, but the incumbent has not dwelled yet.
  f.d_est[1] = -30.0;
  ctx.now = 100.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);
  ctx.now = 499.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);
  EXPECT_EQ(sel.switches(), 0u);
  // Once the 500us dwell has passed the same improvement is allowed through.
  ctx.now = 500.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 1u);
  EXPECT_EQ(sel.switches(), 1u);
}

TEST(TarsSelectorTest, SuspectedIncumbentIsAbandonedImmediately) {
  ViewFixture f(2);
  TarsSelector sel;  // default dwell 500us
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1};
  SelectionContext ctx{40.0, 7, 0.0};
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);
  // The incumbent stops answering: no dwell, no margin — leave at once.
  f.suspected[0] = 1;
  ctx.now = 1.0;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 1u);
  // All suspected: plain fallback (lowest estimate, first wins).
  f.suspected[1] = 1;
  EXPECT_EQ(sel.pick(replicas, f.view(), ctx, rng), 0u);
}

TEST(TarsSelectorTest, StateIsPerReplicaGroup) {
  ViewFixture f(4);
  TarsSelector sel;
  Rng rng{1};
  SelectionContext ctx{40.0, 7, 0.0};
  f.d_est = {0.0, -5.0, -10.0, -20.0};
  // Two disjoint groups settle on their own incumbents.
  EXPECT_EQ(sel.pick({0, 1}, f.view(), ctx, rng), 1u);
  EXPECT_EQ(sel.pick({2, 3}, f.view(), ctx, rng), 3u);
  // Re-picking either group is sticky, not cross-contaminated.
  EXPECT_EQ(sel.pick({0, 1}, f.view(), ctx, rng), 1u);
  EXPECT_EQ(sel.pick({2, 3}, f.view(), ctx, rng), 3u);
}

TEST(TarsSelectorTest, StaleIncumbentOutsideTheCandidateSetIsReplaced) {
  // Group state is keyed by the primary, but a vnode ring can hand two keys
  // the same primary with different successor sets. A cached incumbent that
  // is not a replica of the current key must never be returned.
  ViewFixture f(4);
  TarsSelector sel;
  Rng rng{1};
  SelectionContext ctx{40.0, 7, 0.0};
  f.d_est = {0.0, -5.0, 0.0, -10.0};
  // Primary 0 with successor 1: the group settles on 1.
  EXPECT_EQ(sel.pick({0, 1}, f.view(), ctx, rng), 1u);
  // Same primary, different successor set {0, 3}: the incumbent 1 holds no
  // copy of this key — re-adopt from the candidates, without a switch charge.
  ctx.now = 1.0;
  EXPECT_EQ(sel.pick({0, 3}, f.view(), ctx, rng), 3u);
  EXPECT_EQ(sel.switches(), 0u);
}

TEST(PowerOfDSelectorTest, PicksTheBetterOfTheSampledPair) {
  ViewFixture f(8);
  f.d_est = {70.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0, 0.0};
  PowerOfDSelector sel;
  const std::vector<ServerId> replicas = {0, 1, 2, 3, 4, 5, 6, 7};
  // Whatever pair the stream samples, the pick must be the estimate-minimum
  // of that pair — i.e. never the strictly worse sampled candidate. Replay
  // the sampling with a lockstep reference stream to know the pair.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng{seed};
    Rng reference{seed};
    const ServerId picked = sel.pick(replicas, f.view(), kCtx, rng);
    std::vector<ServerId> pool = replicas;
    const std::size_t i = reference.next_below(pool.size());
    std::swap(pool[0], pool[i]);
    const std::size_t j = 1 + reference.next_below(pool.size() - 1);
    std::swap(pool[1], pool[j]);
    const ServerId expected =
        f.d_est[pool[0]] <= f.d_est[pool[1]] ? pool[0] : pool[1];
    EXPECT_EQ(picked, expected) << "seed " << seed;
    // Exactly two draws consumed.
    EXPECT_EQ(rng.next_u64(), reference.next_u64());
  }
}

TEST(PowerOfDSelectorTest, SuspectsAreNeverSampled) {
  ViewFixture f(4);
  f.suspected = {0, 1, 1, 0};
  PowerOfDSelector sel;
  const std::vector<ServerId> replicas = {0, 1, 2, 3};
  Rng rng{9};
  for (int i = 0; i < 64; ++i) {
    const ServerId picked = sel.pick(replicas, f.view(), kCtx, rng);
    EXPECT_TRUE(picked == 0 || picked == 3) << picked;
  }
  // Single live replica: picked without touching the stream.
  f.suspected = {1, 1, 1, 0};
  Rng before{rng};
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 3u);
  EXPECT_EQ(rng.next_u64(), before.next_u64());
  // All suspected: deterministic plain fallback.
  f.suspected = {1, 1, 1, 1};
  f.d_est = {5.0, 1.0, 2.0, 3.0};
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 1u);
}

TEST(C3SelectorTest, ColdViewMatchesLeastDelay) {
  // With no learned delay the cubic term vanishes and the C3 score is
  // rtt + service — the least-delay ranking, first-replica tie-break and all.
  ViewFixture f(3);
  f.mu_est = {1.0, 2.0, 0.5};  // replica 1 is the fastest
  C3Selector c3;
  LeastDelaySelector ld;
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1, 2};
  EXPECT_EQ(c3.pick(replicas, f.view(), kCtx, rng),
            ld.pick(replicas, f.view(), kCtx, rng));
  ViewFixture flat(3);
  EXPECT_EQ(c3.pick({2, 0, 1}, flat.view(), kCtx, rng), 2u);  // tie: first
}

TEST(C3SelectorTest, CubicPenaltyOutweighsLinearDelay) {
  // demand 40: replica 0 has 100us of learned backlog (q̂=2.5 services), so
  // its cubic score is 10 + 40·(1+15.6) ≈ 677 while least-delay scores it
  // 10+100+40 = 150 — still ahead of replica 1's raw-but-slow 10+0+160=170.
  // C3 flips the pick to the idle slow replica (score 10+160=170): queue
  // depth dominates raw speed once it compounds.
  ViewFixture f(2);
  f.d_est = {100.0, 0.0};
  f.mu_est = {1.0, 0.25};
  C3Selector c3;
  LeastDelaySelector ld;
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1};
  EXPECT_EQ(ld.pick(replicas, f.view(), kCtx, rng), 0u);
  EXPECT_EQ(c3.pick(replicas, f.view(), kCtx, rng), 1u);
}

TEST(C3SelectorTest, SkipsSuspectsAndFallsBackWhenAllSuspected) {
  ViewFixture f(3);
  f.d_est = {50.0, 5.0, 20.0};
  C3Selector sel;
  Rng rng{1};
  const std::vector<ServerId> replicas = {0, 1, 2};
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 1u);
  f.suspected[1] = 1;
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 2u);
  f.suspected.assign(3, 1);
  // All suspected: plain cubic ranking rather than refusing to send.
  EXPECT_EQ(sel.pick(replicas, f.view(), kCtx, rng), 1u);
}

// --- the shared alternate (hedge / failover) ---------------------------------

TEST(PickAlternate, ExcludesOriginSkipsSuspectsNoFallback) {
  ViewFixture f(3);
  f.d_est = {0.0, 10.0, 20.0};
  const std::vector<ServerId> replicas = {0, 1, 2};
  // Every strategy shares the alternate contract; spot-check across two.
  PrimarySelector primary;
  PowerOfDSelector powd;
  for (ReplicaSelector* sel :
       std::vector<ReplicaSelector*>{&primary, &powd}) {
    EXPECT_EQ(sel->pick_alternate(replicas, f.view(), kCtx, /*exclude=*/0), 1u);
    f.suspected[1] = 1;
    EXPECT_EQ(sel->pick_alternate(replicas, f.view(), kCtx, 0), 2u);
    f.suspected[2] = 1;
    // No live distinct replica: the caller must stay put, not double load
    // onto a suspect.
    EXPECT_EQ(sel->pick_alternate(replicas, f.view(), kCtx, 0), kInvalidServer);
    f.suspected.assign(3, 0);
  }
}

}  // namespace
}  // namespace das::select
