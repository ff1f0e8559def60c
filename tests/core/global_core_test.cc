#include "core/global.h"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "core/aggregator.h"

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

GlobalOptions small_budget_options() {
  GlobalOptions options;
  options.budgets = {1000.0, 100.0};
  return options;
}

double sum_data_limits(const ComputeResult& result) {
  return std::accumulate(result.rules.begin(), result.rules.end(), 0.0,
                         [](double acc, const proto::Rule& r) {
                           return acc + r.data_iops_limit;
                         });
}

TEST(GlobalCoreTest, BeginCycleIncrements) {
  GlobalControllerCore core;
  EXPECT_EQ(core.current_cycle(), 0u);
  const auto req = core.begin_cycle();
  EXPECT_EQ(req.cycle_id, 1u);
  EXPECT_EQ(core.current_cycle(), 1u);
  (void)core.begin_cycle();
  EXPECT_EQ(core.current_cycle(), 2u);
}

TEST(GlobalCoreTest, FlatComputeOneRulePerStage) {
  GlobalControllerCore core(small_budget_options());
  const std::vector<proto::StageMetrics> input = {
      metrics(1, 0, 400, 40), metrics(2, 0, 400, 40), metrics(3, 1, 800, 80)};
  const auto result = core.compute(input);
  ASSERT_EQ(result.rules.size(), 3u);
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(result.rules[i].stage_id, input[i].stage_id);
    EXPECT_EQ(result.rules[i].job_id, input[i].job_id);
  }
}

TEST(GlobalCoreTest, FlatComputeRespectsBudget) {
  GlobalControllerCore core(small_budget_options());
  const std::vector<proto::StageMetrics> input = {
      metrics(1, 0, 5000, 500), metrics(2, 1, 5000, 500)};
  const auto result = core.compute(input);
  EXPECT_LE(sum_data_limits(result), 1000.0 + 1e-6);

  const double meta_sum = std::accumulate(
      result.rules.begin(), result.rules.end(), 0.0,
      [](double acc, const proto::Rule& r) { return acc + r.meta_iops_limit; });
  EXPECT_LE(meta_sum, 100.0 + 1e-6);
}

TEST(GlobalCoreTest, FlatComputeProportionalWithinJob) {
  GlobalControllerCore core(small_budget_options());
  // One job, two stages with 1:3 demand; the job is contended so its
  // allocation splits 1:3 between stages.
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 1000, 10),
                                                  metrics(2, 0, 3000, 30)};
  const auto result = core.compute(input);
  ASSERT_EQ(result.rules.size(), 2u);
  EXPECT_NEAR(result.rules[1].data_iops_limit,
              3 * result.rules[0].data_iops_limit, 1e-6);
}

TEST(GlobalCoreTest, WeightsAffectAllocations) {
  GlobalControllerCore core(small_budget_options());
  core.policies().set_weight(JobId{0}, 4.0);
  core.policies().set_weight(JobId{1}, 1.0);
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 5000, 50),
                                                  metrics(2, 1, 5000, 50)};
  const auto result = core.compute(input);
  ASSERT_EQ(result.data_allocations.size(), 2u);
  EXPECT_NEAR(result.data_allocations[0].allocation,
              4 * result.data_allocations[1].allocation, 1e-6);
}

TEST(GlobalCoreTest, RuleEpochEncodesEpochAboveCycle) {
  GlobalOptions options;
  options.epoch = 2;
  GlobalControllerCore core(options);
  (void)core.begin_cycle();
  const std::uint64_t before = core.rule_epoch();
  (void)core.begin_cycle();
  const std::uint64_t later_cycle = core.rule_epoch();
  EXPECT_GT(later_cycle, before);

  core.advance_epoch();  // failover takeover
  EXPECT_GT(core.rule_epoch(), later_cycle);
  EXPECT_EQ(core.epoch(), 3u);
}

TEST(GlobalCoreTest, RulesCarryCurrentRuleEpoch) {
  GlobalControllerCore core(small_budget_options());
  (void)core.begin_cycle();
  const auto result = core.compute(
      std::vector<proto::StageMetrics>{metrics(1, 0, 100, 10)});
  ASSERT_EQ(result.rules.size(), 1u);
  EXPECT_EQ(result.rules[0].epoch, core.rule_epoch());
}

// ---------------------------------------------------------------------------
// Hierarchical path

AggregatorCore make_aggregator(std::uint32_t id, bool digests = true) {
  return AggregatorCore(
      AggregatorOptions{ControllerId{id}, true, digests});
}

TEST(GlobalCoreTest, HierarchicalComputeFromAggregates) {
  GlobalControllerCore core(small_budget_options());
  // Register stages routed via two aggregators.
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(core.registry()
                    .add({{StageId{i}, NodeId{i}, JobId{i / 2}, "n"},
                          ConnId{i},
                          ControllerId{i / 2}})
                    .is_ok());
  }
  AggregatorCore agg0 = make_aggregator(0);
  AggregatorCore agg1 = make_aggregator(1);
  const std::vector<proto::StageMetrics> left = {metrics(0, 0, 600, 60),
                                                 metrics(1, 0, 600, 60)};
  const std::vector<proto::StageMetrics> right = {metrics(2, 1, 600, 60),
                                                  metrics(3, 1, 600, 60)};
  const std::vector<proto::AggregatedMetrics> reports = {
      agg0.aggregate(1, left), agg1.aggregate(1, right)};

  const auto result = core.compute(reports);
  EXPECT_EQ(result.rules.size(), 4u);
  EXPECT_LE(sum_data_limits(result), 1000.0 + 1e-6);
}

TEST(GlobalCoreTest, HierarchicalDigestsEnableProportionalSplit) {
  GlobalControllerCore core(small_budget_options());
  for (std::uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(core.registry()
                    .add({{StageId{i}, NodeId{i}, JobId{0}, "n"},
                          ConnId{i},
                          ControllerId{0}})
                    .is_ok());
  }
  AggregatorCore agg = make_aggregator(0, /*digests=*/true);
  const std::vector<proto::StageMetrics> input = {metrics(0, 0, 1000, 10),
                                                  metrics(1, 0, 3000, 30)};
  const std::vector<proto::AggregatedMetrics> reports = {
      agg.aggregate(1, input)};
  const auto result = core.compute(reports);
  ASSERT_EQ(result.rules.size(), 2u);
  EXPECT_NEAR(result.rules[1].data_iops_limit,
              3 * result.rules[0].data_iops_limit, 1.0);
}

TEST(GlobalCoreTest, HierarchicalWithoutDigestsSplitsUniformly) {
  GlobalControllerCore core(small_budget_options());
  for (std::uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(core.registry()
                    .add({{StageId{i}, NodeId{i}, JobId{0}, "n"},
                          ConnId{i},
                          ControllerId{0}})
                    .is_ok());
  }
  AggregatorCore agg = make_aggregator(0, /*digests=*/false);
  const std::vector<proto::StageMetrics> input = {metrics(0, 0, 1000, 10),
                                                  metrics(1, 0, 3000, 30)};
  const std::vector<proto::AggregatedMetrics> reports = {
      agg.aggregate(1, input)};
  const auto result = core.compute(reports);
  ASSERT_EQ(result.rules.size(), 2u);
  EXPECT_NEAR(result.rules[0].data_iops_limit, result.rules[1].data_iops_limit,
              1e-6);
}

TEST(GlobalCoreTest, GroupRulesByAggregator) {
  GlobalControllerCore core(small_budget_options());
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(core.registry()
                    .add({{StageId{i}, NodeId{i}, JobId{0}, "n"},
                          ConnId{i},
                          i < 4 ? ControllerId{i / 2} : ControllerId::invalid()})
                    .is_ok());
  }
  ComputeResult result;
  for (std::uint32_t i = 0; i < 6; ++i) {
    proto::Rule rule;
    rule.stage_id = StageId{i};
    rule.job_id = JobId{0};
    result.rules.push_back(rule);
  }
  const auto grouped = core.group_rules(result);
  ASSERT_EQ(grouped.size(), 3u);  // agg0, agg1, direct
  EXPECT_EQ(grouped.at(ControllerId{0}).rules.size(), 2u);
  EXPECT_EQ(grouped.at(ControllerId{1}).rules.size(), 2u);
  EXPECT_EQ(grouped.at(ControllerId::invalid()).rules.size(), 2u);
}

TEST(GlobalCoreTest, FlatVsHierarchicalSameJobAllocations) {
  // The same demand picture must produce identical job-level allocations
  // whether it arrives raw (flat) or pre-aggregated (hierarchical).
  GlobalOptions options;
  options.budgets = {10'000.0, 1'000.0};

  std::vector<proto::StageMetrics> all;
  for (std::uint32_t i = 0; i < 40; ++i) {
    all.push_back(metrics(i, i / 10, 500.0 + i, 50.0));
  }

  GlobalControllerCore flat_core(options);
  const auto flat_result = flat_core.compute(all);

  GlobalControllerCore hier_core(options);
  for (std::uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(hier_core.registry()
                    .add({{StageId{i}, NodeId{i}, JobId{i / 10}, "n"},
                          ConnId{i},
                          ControllerId{i / 20}})
                    .is_ok());
  }
  AggregatorCore agg0 = make_aggregator(0);
  AggregatorCore agg1 = make_aggregator(1);
  const std::vector<proto::StageMetrics> left(all.begin(), all.begin() + 20);
  const std::vector<proto::StageMetrics> right(all.begin() + 20, all.end());
  const std::vector<proto::AggregatedMetrics> reports = {
      agg0.aggregate(1, left), agg1.aggregate(1, right)};
  const auto hier_result = hier_core.compute(reports);

  ASSERT_EQ(flat_result.data_allocations.size(),
            hier_result.data_allocations.size());
  for (std::size_t i = 0; i < flat_result.data_allocations.size(); ++i) {
    EXPECT_EQ(flat_result.data_allocations[i].job_id,
              hier_result.data_allocations[i].job_id);
    EXPECT_NEAR(flat_result.data_allocations[i].allocation,
                hier_result.data_allocations[i].allocation, 1e-6);
  }
}

/// One aggregator's summary with one job row per (data, meta) pair.
proto::AggregatedMetrics summary(
    std::uint32_t from, const std::vector<std::pair<double, double>>& jobs) {
  proto::AggregatedMetrics report;
  report.from = ControllerId{from};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    proto::JobMetrics row;
    row.job_id = JobId{static_cast<std::uint32_t>(from * 10 + j)};
    row.data_iops = jobs[j].first;
    row.meta_iops = jobs[j].second;
    report.jobs.push_back(row);
  }
  return report;
}

TEST(GlobalCoreTest, LeaseBudgetsSplitInProportionToReportedDemand) {
  GlobalControllerCore core(small_budget_options());  // 1000 data, 100 meta
  (void)core.begin_cycle();
  (void)core.begin_cycle();
  const std::vector<proto::AggregatedMetrics> reports = {
      summary(0, {{300, 10}, {100, 10}}), summary(1, {{600, 60}})};
  const auto leases = core.lease_budgets(reports, 12345);
  ASSERT_EQ(leases.size(), 2u);
  // budget * agg / total, in that order: 1000 * 400 / 1000 and
  // 100 * 20 / 80.
  EXPECT_EQ(leases[0].data_budget, 1000.0 * 400.0 / 1000.0);
  EXPECT_EQ(leases[0].meta_budget, 100.0 * 20.0 / 80.0);
  EXPECT_EQ(leases[1].data_budget, 1000.0 * 600.0 / 1000.0);
  EXPECT_EQ(leases[1].meta_budget, 100.0 * 60.0 / 80.0);
  for (const auto& lease : leases) {
    EXPECT_EQ(lease.cycle_id, 2u);
    EXPECT_EQ(lease.valid_until_ns, 12345u);
  }
}

TEST(GlobalCoreTest, LeaseBudgetsSplitEvenlyPerDimensionWithoutDemand) {
  GlobalControllerCore core(small_budget_options());
  (void)core.begin_cycle();
  // No data demand anywhere; meta demand only at aggregator 2.
  const std::vector<proto::AggregatedMetrics> reports = {
      summary(0, {}), summary(1, {{0, 0}}), summary(2, {{0, 30}})};
  const auto leases = core.lease_budgets(reports, 7);
  ASSERT_EQ(leases.size(), 3u);
  for (const auto& lease : leases) {
    EXPECT_EQ(lease.data_budget, 1000.0 / 3.0);
    EXPECT_EQ(lease.cycle_id, 1u);
    EXPECT_EQ(lease.valid_until_ns, 7u);
  }
  EXPECT_EQ(leases[0].meta_budget, 0.0);
  EXPECT_EQ(leases[1].meta_budget, 0.0);
  EXPECT_EQ(leases[2].meta_budget, 100.0);
  EXPECT_TRUE(core.lease_budgets({}, 7).empty());
}

TEST(GlobalCoreTest, EmptyMetricsYieldNoRules) {
  GlobalControllerCore core;
  const auto result = core.compute(std::span<const proto::StageMetrics>{});
  EXPECT_TRUE(result.rules.empty());
  EXPECT_TRUE(result.data_allocations.empty());
}

}  // namespace
}  // namespace sds::core
