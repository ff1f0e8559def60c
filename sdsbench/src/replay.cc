#include "replay.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/aggregator.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "proto/messages.h"
#include "sim/engine.h"

namespace sdsbench {

namespace {

using sds::JobId;
using sds::StageId;
using sds::stage::Dimension;

// Replay cycle c happens at virtual time c epochs, so the model churns
// exactly one epoch's worth of jobs per replayed cycle.
sds::proto::StageMetrics report(const DemandModel& model, std::uint32_t stage,
                                std::uint64_t cycle) {
  sds::proto::StageMetrics m;
  m.cycle_id = cycle;
  m.stage_id = StageId{stage};
  m.job_id = JobId{static_cast<std::uint32_t>(stage / model.stages_per_job)};
  const sds::Nanos t = model.epoch * static_cast<std::int64_t>(cycle);
  m.data_iops = model.value(stage, Dimension::kData, t);
  m.meta_iops = model.value(stage, Dimension::kMeta, t);
  return m;
}

}  // namespace

EngineReplay replay_engine(std::uint64_t events_per_cycle, std::uint64_t cycles,
                           std::uint64_t seed) {
  sds::sim::Engine engine;
  std::vector<sds::sim::Engine::TimedEvent> batch;
  const std::uint64_t fanout = std::max<std::uint64_t>(1, events_per_cycle / 2);
  std::uint64_t sink = 0;
  const double start = wall_s();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    const sds::Nanos base = engine.now();
    batch.clear();
    batch.reserve(fanout);
    for (std::uint64_t i = 0; i < fanout; ++i) {
      const std::uint64_t h = mix64(seed ^ (c << 32) ^ i);
      const sds::Nanos at =
          base + sds::Nanos{static_cast<std::int64_t>(h % 2'000'000)};
      batch.push_back({at, [&engine, &sink, h] {
                         sink += h & 1;
                         engine.schedule_at(
                             engine.now() + sds::Nanos{static_cast<std::int64_t>(
                                                (h >> 24) % 50'000)},
                             [&sink] { ++sink; });
                       }});
    }
    engine.schedule_batch(batch);
    while (engine.step()) {
    }
  }
  const double secs = wall_s() - start;
  EngineReplay out;
  out.events = engine.executed();
  out.ns_per_event =
      out.events > 0 ? secs * 1e9 / static_cast<double>(out.events) : 0;
  if (sink == 0) out.ns_per_event = 0;  // keeps `sink` observable
  return out;
}

FoldReplay replay_fold(std::size_t stages, const DemandModel& model,
                       bool deltas, std::uint64_t cycles) {
  sds::core::MetricsStore store;
  store.reset(stages);
  std::vector<sds::proto::StageMetrics> last(stages);
  for (std::uint32_t i = 0; i < stages; ++i) {
    store.bind(StageId{i},
               JobId{static_cast<std::uint32_t>(i / model.stages_per_job)});
    last[i] = report(model, i, 1);
    store.update_at(i, last[i]);
  }
  std::vector<std::uint32_t> drained;
  store.drain_dirty(drained);

  std::vector<sds::proto::StageMetrics> next(stages);
  std::vector<sds::proto::StageMetricsDelta> made(stages);
  double make_s = 0;
  double fold_s = 0;
  for (std::uint64_t c = 2; c < 2 + cycles; ++c) {
    for (std::uint32_t i = 0; i < stages; ++i) next[i] = report(model, i, c);
    double t0 = wall_s();
    for (std::uint32_t i = 0; i < stages; ++i) {
      made[i] = sds::proto::StageMetricsDelta::make(last[i], next[i],
                                                    /*include_stage_id=*/false);
    }
    make_s += wall_s() - t0;
    t0 = wall_s();
    if (deltas) {
      for (std::uint32_t i = 0; i < stages; ++i) {
        (void)store.apply_delta(made[i], i);
      }
    } else {
      for (std::uint32_t i = 0; i < stages; ++i) store.update_at(i, next[i]);
    }
    store.drain_dirty(drained);
    fold_s += wall_s() - t0;
    last.swap(next);
  }
  FoldReplay out;
  out.reports = stages * cycles;
  if (out.reports > 0) {
    const auto n = static_cast<double>(out.reports);
    out.fold_ns_per_report = fold_s * 1e9 / n;
    out.delta_make_ns_per_report = make_s * 1e9 / n;
  }
  return out;
}

ComputeReplay replay_compute(ComputePath path, std::size_t stages,
                             std::size_t aggregators, const DemandModel& model,
                             sds::core::Budgets budgets, std::uint64_t cycles) {
  sds::core::GlobalOptions options;
  options.budgets = budgets;
  // `global` runs the topology's batch compute; `store_global` runs
  // compute_from_store (timed on the flat store path, stats-only else).
  sds::core::GlobalControllerCore global(options);
  sds::core::GlobalControllerCore store_global(options);
  sds::core::MetricsStore flat_store;
  flat_store.reset(stages);

  const std::size_t aggs = path == ComputePath::kHierStore
                               ? std::max<std::size_t>(1, aggregators)
                               : 0;
  std::vector<std::unique_ptr<sds::core::AggregatorCore>> agg_cores;
  for (std::size_t a = 0; a < aggs; ++a) {
    agg_cores.push_back(std::make_unique<sds::core::AggregatorCore>(
        sds::core::AggregatorOptions{
            sds::ControllerId{static_cast<std::uint32_t>(a)}, true, true, 0.0}));
  }
  // Contiguous stage blocks per aggregator, as the simulator assigns them.
  const auto agg_of = [&](std::size_t i) { return i * aggs / stages; };
  for (std::uint32_t i = 0; i < stages; ++i) {
    sds::proto::StageInfo info;
    info.stage_id = StageId{i};
    info.node_id = sds::NodeId{i};
    info.job_id = JobId{static_cast<std::uint32_t>(i / model.stages_per_job)};
    const sds::ControllerId via =
        aggs > 0 ? sds::ControllerId{static_cast<std::uint32_t>(agg_of(i))}
                 : sds::ControllerId::invalid();
    (void)global.registry().add({info, sds::ConnId{i}, via});
    flat_store.bind(info.stage_id, info.job_id);
    if (aggs > 0) {
      auto& agg = *agg_cores[agg_of(i)];
      (void)agg.registry().add(
          {info, sds::ConnId{i}, sds::ControllerId::invalid()});
      agg.store().bind(info.stage_id, info.job_id);
    }
  }

  std::vector<sds::proto::StageMetrics> reports(stages);
  std::vector<sds::proto::AggregatedMetrics> summaries(aggs);
  sds::core::GlobalControllerCore::StoreComputeStats warm;
  double compute_s = 0;
  std::uint64_t timed = 0;
  // Cycle 1 builds every slot's state anew in all paths; it is
  // run but not timed, as in a warmed-up control loop.
  for (std::uint64_t c = 1; c <= cycles + 1; ++c) {
    for (std::uint32_t i = 0; i < stages; ++i) {
      reports[i] = report(model, i, c);
      flat_store.update_at(i, reports[i]);
      if (aggs > 0) (void)agg_cores[agg_of(i)]->store().update(reports[i]);
    }
    const double t0 = wall_s();
    std::size_t rules = 0;
    switch (path) {
      case ComputePath::kHierStore:
        for (std::size_t a = 0; a < aggs; ++a) {
          summaries[a] = agg_cores[a]->aggregate_from_store(c);
        }
        rules = global
                    .compute(std::span<const sds::proto::AggregatedMetrics>(
                        summaries.data(), summaries.size()))
                    .rules.size();
        break;
      case ComputePath::kFlatBatch:
        rules = global
                    .compute(std::span<const sds::proto::StageMetrics>(
                        reports.data(), reports.size()))
                    .rules.size();
        break;
      case ComputePath::kFlatStore:
        rules = store_global.compute_from_store(flat_store).rules.size();
        break;
    }
    const double dt = wall_s() - t0;
    if (rules != stages) return {};
    if (path != ComputePath::kFlatStore) {
      (void)store_global.compute_from_store(flat_store);
    }
    if (c == 1) {
      warm = store_global.store_compute_stats();
    } else {
      compute_s += dt;
      ++timed;
    }
  }
  ComputeReplay out;
  out.cycles = timed;
  if (timed > 0) {
    const auto n = static_cast<double>(timed);
    const auto& stats = store_global.store_compute_stats();
    out.compute_ms_per_cycle = compute_s * 1e3 / n;
    out.jobs_resummed_per_cycle =
        static_cast<double>(stats.jobs_resummed - warm.jobs_resummed) / n;
    out.algorithm_runs_per_cycle =
        static_cast<double>(stats.algorithm_runs - warm.algorithm_runs) / n;
  }
  return out;
}

}  // namespace sdsbench
