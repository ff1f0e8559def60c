// OutageCursor must answer exactly what CompiledPlan answers, for any
// query order: monotone (the simulator's clock), repeated timestamps,
// and times that go backwards (the re-seek path), on timelines with
// churn, scripted and permanent outages, and no outages at all.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/plan.h"

namespace sds::fault {
namespace {

constexpr std::size_t kStages = 24;
constexpr std::size_t kAggregators = 6;
const Nanos kHorizon = millis(400);

/// Latest outage end at or before `t` (permanent outages never end):
/// the reference for the aggregator tier, which CompiledPlan has no
/// restart query for.
Nanos brute_last_restart(std::span<const DownInterval> outages, Nanos t) {
  Nanos last{-1};
  for (const DownInterval& iv : outages) {
    if (iv.until != CompiledPlan::kNever && iv.until <= t) {
      last = std::max(last, iv.until);
    }
  }
  return last;
}

/// Churn on both tiers plus scripted crashes: finite, permanent, one
/// nested inside another, one that starts at t = 0. Aggregator churn is
/// rare (MTBF 0.5 s over a 0.4 s horizon), so some aggregators have
/// empty timelines.
CompiledPlan randomized_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.stage_mtbf_s = 0.03;
  plan.stage_downtime_s = 0.01;
  plan.aggregator_mtbf_s = 0.5;
  plan.aggregator_downtime_s = 0.02;
  plan.crash_stage(1, millis(0), millis(7));
  plan.crash_stage(2, millis(50), Nanos{0});  // permanent
  plan.crash_stage(3, millis(100), millis(40));
  plan.crash_stage(3, millis(120), millis(5));  // inside the one above
  plan.crash_aggregator(0, millis(30), millis(10));
  plan.crash_aggregator(1, millis(200), Nanos{0});  // permanent
  return CompiledPlan::compile(plan, kStages, kAggregators, kHorizon);
}

/// Only scripted crashes: most entities have empty timelines.
CompiledPlan sparse_plan() {
  FaultPlan plan;
  plan.crash_stage(5, millis(10), millis(10));
  plan.crash_stage(5, millis(20), millis(10));  // adjacent: merges
  plan.crash_stage(6, millis(15), Nanos{0});
  plan.crash_aggregator(2, millis(40), millis(1));
  return CompiledPlan::compile(plan, kStages, kAggregators, kHorizon);
}

/// Every interval edge and its neighbours: t == from, t == until, ±1 ns
/// (a permanent outage's end, kNever, has no successor).
std::vector<Nanos> boundary_times(std::span<const DownInterval> outages) {
  std::vector<Nanos> times = {Nanos{0}, Nanos{-5}};
  for (const DownInterval& iv : outages) {
    for (const Nanos edge : {iv.from, iv.until}) {
      times.push_back(edge - Nanos{1});
      times.push_back(edge);
      if (edge != CompiledPlan::kNever) times.push_back(edge + Nanos{1});
    }
  }
  return times;
}

struct Checker {
  const CompiledPlan& plan;
  OutageCursor stages{plan, OutageCursor::Tier::kStage};
  OutageCursor aggregators{plan, OutageCursor::Tier::kAggregator};
  std::size_t checked = 0;

  void stage(std::size_t s, Nanos t) {
    ASSERT_EQ(stages.up(s, t), plan.stage_up(s, t)) << "stage " << s << " t=" << t.count();
    ASSERT_EQ(stages.last_restart_before(s, t), plan.last_stage_restart_before(s, t))
        << "stage " << s << " t=" << t.count();
    ++checked;
  }

  void aggregator(std::size_t a, Nanos t) {
    ASSERT_EQ(aggregators.up(a, t), plan.aggregator_up(a, t))
        << "aggregator " << a << " t=" << t.count();
    const Nanos want = a < plan.num_aggregators()
                           ? brute_last_restart(plan.aggregator_outages(a), t)
                           : Nanos{-1};
    ASSERT_EQ(aggregators.last_restart_before(a, t), want)
        << "aggregator " << a << " t=" << t.count();
    ++checked;
  }
};

/// `count` query times in [-1 ms, horizon + 50 ms), every fourth one a
/// repeat of its predecessor.
std::vector<Nanos> random_times(Rng& rng, std::size_t count) {
  std::vector<Nanos> times;
  times.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 4 == 3) {
      times.push_back(times.back());
    } else {
      times.push_back(Nanos{rng.uniform_int(-millis(1).count(),
                                            (kHorizon + millis(50)).count())});
    }
  }
  return times;
}

TEST(OutageCursorTest, PlansHaveTheShapesUnderTest) {
  const CompiledPlan plan = randomized_plan(11);
  std::size_t empty_aggregators = 0;
  for (std::size_t a = 0; a < kAggregators; ++a) {
    if (plan.aggregator_outages(a).empty()) ++empty_aggregators;
  }
  EXPECT_GT(empty_aggregators, 0u);
  EXPECT_GT(plan.stage_outages(0).size(), 3u);  // churn: several windows
  EXPECT_EQ(plan.stage_outages(2).back().until, CompiledPlan::kNever);
  EXPECT_EQ(plan.aggregator_outages(1).back().until, CompiledPlan::kNever);
  EXPECT_EQ(sparse_plan().stage_outages(5).size(), 1u);  // merged
}

TEST(OutageCursorTest, MonotoneQueriesMatchPlan) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const CompiledPlan plan = randomized_plan(seed);
    Checker check{plan};
    Rng rng(seed);
    std::vector<Nanos> times = random_times(rng, 4000);
    std::sort(times.begin(), times.end());
    for (const Nanos t : times) {
      for (std::size_t s = 0; s < kStages; ++s) check.stage(s, t);
      for (std::size_t a = 0; a < kAggregators; ++a) check.aggregator(a, t);
    }
  }
}

TEST(OutageCursorTest, RepeatedAndBackwardQueriesMatchPlan) {
  for (const std::uint64_t seed : {2ULL, 3ULL}) {
    const CompiledPlan plan = randomized_plan(seed);
    Checker check{plan};
    Rng rng(seed * 31);
    // Unsorted: most steps jump backwards or far forwards.
    for (const Nanos t : random_times(rng, 4000)) {
      check.stage(rng.next_below(kStages), t);
      check.aggregator(rng.next_below(kAggregators), t);
    }
    // Sorted, then replayed in reverse: every step moves backwards.
    std::vector<Nanos> times = random_times(rng, 2000);
    std::sort(times.begin(), times.end());
    for (auto it = times.rbegin(); it != times.rend(); ++it) {
      for (std::size_t s = 0; s < kStages; ++s) check.stage(s, *it);
      for (std::size_t a = 0; a < kAggregators; ++a) check.aggregator(a, *it);
    }
  }
}

TEST(OutageCursorTest, ExactBoundariesMatchPlan) {
  for (const CompiledPlan& plan : {randomized_plan(5), sparse_plan()}) {
    Checker check{plan};
    for (std::size_t s = 0; s < kStages; ++s) {
      std::vector<Nanos> times = boundary_times(plan.stage_outages(s));
      // Forward, then backward over the same edges.
      std::sort(times.begin(), times.end());
      for (const Nanos t : times) check.stage(s, t);
      for (auto it = times.rbegin(); it != times.rend(); ++it) check.stage(s, *it);
    }
    for (std::size_t a = 0; a < kAggregators; ++a) {
      std::vector<Nanos> times = boundary_times(plan.aggregator_outages(a));
      std::sort(times.begin(), times.end());
      for (const Nanos t : times) check.aggregator(a, t);
      for (auto it = times.rbegin(); it != times.rend(); ++it) {
        check.aggregator(a, *it);
      }
    }
    EXPECT_GT(check.checked, 0u);
  }
}

TEST(OutageCursorTest, HandComputedWindows) {
  const CompiledPlan plan = sparse_plan();
  OutageCursor stages(plan, OutageCursor::Tier::kStage);
  // Stage 5: one merged outage [10 ms, 30 ms).
  EXPECT_TRUE(stages.up(5, millis(10) - Nanos{1}));
  EXPECT_FALSE(stages.up(5, millis(10)));
  EXPECT_FALSE(stages.up(5, millis(30) - Nanos{1}));
  EXPECT_EQ(stages.last_restart_before(5, millis(30) - Nanos{1}), Nanos{-1});
  EXPECT_TRUE(stages.up(5, millis(30)));
  EXPECT_EQ(stages.last_restart_before(5, millis(30)), millis(30));
  EXPECT_EQ(stages.last_restart_before(5, seconds(100)), millis(30));
  EXPECT_EQ(stages.last_restart_before(5, millis(12)), Nanos{-1});  // backwards
  // Stage 6: down from 15 ms forever, never restarts.
  EXPECT_FALSE(stages.up(6, seconds(1000)));
  EXPECT_EQ(stages.last_restart_before(6, seconds(1000)), Nanos{-1});
  EXPECT_TRUE(stages.up(6, millis(14)));
  // No outages, and entities outside the tier: always up, no restart.
  EXPECT_TRUE(stages.up(0, millis(20)));
  EXPECT_EQ(stages.last_restart_before(0, millis(20)), Nanos{-1});
  EXPECT_TRUE(stages.up(kStages + 3, millis(20)));
  EXPECT_EQ(stages.last_restart_before(kStages + 3, millis(20)), Nanos{-1});
  // A default cursor covers no entity.
  OutageCursor none;
  EXPECT_TRUE(none.up(0, millis(1)));
}

}  // namespace
}  // namespace sds::fault
