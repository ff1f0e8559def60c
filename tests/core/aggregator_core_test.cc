#include "core/aggregator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace sds::core {
namespace {

proto::StageMetrics metrics(std::uint32_t stage, std::uint32_t job,
                            double data, double meta) {
  proto::StageMetrics m;
  m.cycle_id = 1;
  m.stage_id = StageId{stage};
  m.job_id = JobId{job};
  m.data_iops = data;
  m.meta_iops = meta;
  return m;
}

TEST(AggregatorCoreTest, AggregateMergesPerJob) {
  AggregatorCore agg(AggregatorOptions{ControllerId{3}, true, false});
  const std::vector<proto::StageMetrics> input = {
      metrics(1, 0, 100, 10), metrics(2, 0, 200, 20), metrics(3, 1, 50, 5)};
  const auto report = agg.aggregate(9, input);
  EXPECT_EQ(report.cycle_id, 9u);
  EXPECT_EQ(report.from, ControllerId{3});
  EXPECT_EQ(report.total_stages, 3u);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].job_id, JobId{0});
  EXPECT_DOUBLE_EQ(report.jobs[0].data_iops, 300.0);
  EXPECT_DOUBLE_EQ(report.jobs[0].meta_iops, 30.0);
  EXPECT_EQ(report.jobs[0].stage_count, 2u);
  EXPECT_EQ(report.jobs[1].stage_count, 1u);
  EXPECT_TRUE(report.digests.empty());
}

TEST(AggregatorCoreTest, AggregateWithDigests) {
  AggregatorCore agg(AggregatorOptions{ControllerId{3}, true, true});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 100, 10),
                                                  metrics(2, 0, 200, 20)};
  const auto report = agg.aggregate(1, input);
  ASSERT_EQ(report.digests.size(), 2u);
  EXPECT_EQ(report.digests[0].stage_id, StageId{1});
  EXPECT_FLOAT_EQ(report.digests[1].data_iops, 200.0f);
}

TEST(AggregatorCoreTest, AggregateNegativeRatesClamped) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, -50, -5)};
  const auto report = agg.aggregate(1, input);
  EXPECT_DOUBLE_EQ(report.jobs[0].data_iops, 0.0);
}

TEST(AggregatorCoreTest, AggregateEmptyInput) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  const auto report = agg.aggregate(1, {});
  EXPECT_EQ(report.total_stages, 0u);
  EXPECT_TRUE(report.jobs.empty());
}

TEST(AggregatorCoreTest, PassthroughRelaysRawEntries) {
  AggregatorCore agg(AggregatorOptions{ControllerId{2}, false});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 100, 10),
                                                  metrics(2, 1, 200, 20)};
  const auto batch = agg.passthrough(5, input);
  EXPECT_EQ(batch.cycle_id, 5u);
  EXPECT_EQ(batch.from, ControllerId{2});
  ASSERT_EQ(batch.entries.size(), 2u);
  EXPECT_EQ(batch.entries[1].stage_id, StageId{2});
}

TEST(AggregatorCoreTest, RouteSeparatesOwnedFromUnknown) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  ASSERT_TRUE(agg.registry()
                  .add({{StageId{1}, NodeId{1}, JobId{0}, "n"},
                        ConnId{1},
                        ControllerId::invalid()})
                  .is_ok());
  proto::EnforceBatch batch;
  batch.cycle_id = 1;
  proto::Rule owned;
  owned.stage_id = StageId{1};
  proto::Rule foreign;
  foreign.stage_id = StageId{99};
  batch.rules = {owned, foreign};

  const auto routed = agg.route(batch);
  ASSERT_EQ(routed.owned.size(), 1u);
  EXPECT_EQ(routed.owned[0].stage_id, StageId{1});
  ASSERT_EQ(routed.unknown.size(), 1u);
  EXPECT_EQ(routed.unknown[0].stage_id, StageId{99});
}

TEST(AggregatorCoreTest, MergeAcksSumsMatchingCycle) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  const std::vector<proto::EnforceAck> acks = {
      {7, 3}, {7, 2}, {6, 100}};  // stale cycle ignored
  const auto merged = agg.merge_acks(7, acks);
  EXPECT_EQ(merged.cycle_id, 7u);
  EXPECT_EQ(merged.applied, 5u);
}

TEST(AggregatorCoreTest, LocalComputeRespectsLease) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  proto::BudgetLease lease;
  lease.cycle_id = 1;
  lease.data_budget = 500.0;
  lease.meta_budget = 50.0;
  lease.valid_until_ns = 1'000'000;
  agg.set_lease(lease);

  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 1000, 100),
                                                  metrics(2, 0, 1000, 100)};
  const auto rules = agg.local_compute(1, input, /*now_ns=*/500'000);
  ASSERT_EQ(rules.size(), 2u);
  double data_sum = 0;
  for (const auto& rule : rules) data_sum += rule.data_iops_limit;
  EXPECT_LE(data_sum, 500.0 + 1e-6);
  EXPECT_GE(data_sum, 499.0);  // work-conserving under contention
}

TEST(AggregatorCoreTest, LocalComputeExpiredLeaseYieldsNothing) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  proto::BudgetLease lease;
  lease.valid_until_ns = 100;
  agg.set_lease(lease);
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 1000, 100)};
  EXPECT_TRUE(agg.local_compute(1, input, /*now_ns=*/200).empty());
}

/// Bit pattern of a double or float, so equality below is bitwise.
template <typename T>
auto bits(T v) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return std::bit_cast<std::uint32_t>(v);
  }
}

void expect_bit_identical(const proto::AggregatedMetrics& store,
                          const proto::AggregatedMetrics& batch) {
  EXPECT_EQ(store.cycle_id, batch.cycle_id);
  EXPECT_EQ(store.from, batch.from);
  EXPECT_EQ(store.total_stages, batch.total_stages);
  ASSERT_EQ(store.jobs.size(), batch.jobs.size());
  for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
    const proto::JobMetrics& got = store.jobs[j];
    const proto::JobMetrics& want = batch.jobs[j];
    EXPECT_EQ(got.job_id, want.job_id) << j;
    EXPECT_EQ(got.stage_count, want.stage_count) << j;
    EXPECT_EQ(bits(got.data_iops), bits(want.data_iops)) << j;
    EXPECT_EQ(bits(got.meta_iops), bits(want.meta_iops)) << j;
  }
  ASSERT_EQ(store.digests.size(), batch.digests.size());
  for (std::size_t i = 0; i < batch.digests.size(); ++i) {
    const proto::StageDigest& got = store.digests[i];
    const proto::StageDigest& want = batch.digests[i];
    EXPECT_EQ(got.stage_id, want.stage_id) << i;
    EXPECT_EQ(bits(got.data_iops), bits(want.data_iops)) << i;
    EXPECT_EQ(bits(got.meta_iops), bits(want.meta_iops)) << i;
  }
}

TEST(AggregatorCoreTest, AggregateFromStoreMatchesSlotOrderedBatchBitForBit) {
  // The incremental summary over the store equals the batch aggregate()
  // over the same last reports in slot order — jobs, digests and counts,
  // bit for bit — while a random walk dirties only part of the subtree
  // each cycle. Stage ids start mid-range and jobs interleave across
  // slots, as in one aggregator's block of a larger topology.
  constexpr std::uint32_t kStages = 90;
  constexpr std::uint32_t kJobs = 13;
  constexpr std::uint32_t kFirstStage = 400;
  AggregatorCore incremental(AggregatorOptions{ControllerId{5}});
  const AggregatorCore batch(AggregatorOptions{ControllerId{5}});
  MetricsStore& store = incremental.store();
  store.reset(kStages);
  std::vector<proto::StageMetrics> last(kStages);
  Rng rng(0xa66u);
  for (std::uint32_t i = 0; i < kStages; ++i) {
    const std::uint32_t job = (i * 7) % kJobs;
    ASSERT_EQ(store.bind(StageId{kFirstStage + i}, JobId{job}), i);
    last[i] = metrics(kFirstStage + i, job, rng.uniform(500.0, 1500.0),
                      rng.uniform(50.0, 150.0));
  }
  for (std::uint64_t cycle = 1; cycle <= 100; ++cycle) {
    // Cycle 1 reports every stage; later cycles re-report a random
    // subset (the rest keep their previous row), with drifting, zeroed
    // and negative rates.
    std::size_t moved = 0;
    for (std::uint32_t i = 0; i < kStages; ++i) {
      if (cycle > 1 && !rng.bernoulli(0.15)) continue;
      proto::StageMetrics& m = last[i];
      m.cycle_id = cycle;
      const double roll = rng.uniform01();
      if (roll < 0.1) {
        m.data_iops = 0.0;
      } else if (roll < 0.15) {
        m.data_iops = -rng.uniform(1.0, 10.0);
      } else {
        m.data_iops *= 1.0 + rng.normal(0, 0.1);
      }
      m.meta_iops += rng.normal(0, 3.0);
      store.update_at(i, m);
      ++moved;
    }
    if (cycle > 1) {
      ASSERT_LT(moved, kStages) << "cycle " << cycle;
    }
    const proto::AggregatedMetrics& from_store =
        incremental.aggregate_from_store(cycle);
    expect_bit_identical(from_store, batch.aggregate(cycle, last));
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged at cycle " << cycle;
    }
  }
}

}  // namespace
}  // namespace sds::core
