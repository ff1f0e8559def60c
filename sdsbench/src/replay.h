// Replay pass of the traced run: drives each layer's public entry points
// on their own, at a workload's scale and churn, and times them from the
// outside. The replays feed the per-layer metrics; they never run during
// the untraced (end-to-end) measurement.
#pragma once

#include <cstdint>

#include "common.h"
#include "core/policy_table.h"

namespace sdsbench {

/// sim::Engine: schedule_batch fan-out bursts whose events each
/// schedule_at one follow-up, stepped to empty. ns per executed event.
struct EngineReplay {
  double ns_per_event = 0;
  std::uint64_t events = 0;
};
[[nodiscard]] EngineReplay replay_engine(std::uint64_t events_per_cycle,
                                         std::uint64_t cycles,
                                         std::uint64_t seed);

/// core::MetricsStore fold and proto::StageMetricsDelta::make over
/// `stages` stages reporting the demand model's values each cycle:
/// apply_delta when `deltas` (the workload sends delta frames), update
/// otherwise. Each cycle's makes and folds are timed as two batches.
struct FoldReplay {
  double fold_ns_per_report = 0;
  double delta_make_ns_per_report = 0;
  std::uint64_t reports = 0;
};
[[nodiscard]] FoldReplay replay_fold(std::size_t stages,
                                     const DemandModel& model, bool deltas,
                                     std::uint64_t cycles);

/// The compute step the workload's topology runs:
///  * kHierStore  — AggregatorCore::aggregate_from_store on every
///    aggregator, then GlobalControllerCore::compute over the summaries;
///  * kFlatBatch  — GlobalControllerCore::compute over a StageMetrics span;
///  * kFlatStore  — GlobalControllerCore::compute_from_store.
/// A compute_from_store replay over the same reports always runs too, for
/// store_compute_stats() (jobs re-summed and algorithm runs per cycle).
enum class ComputePath { kHierStore, kFlatBatch, kFlatStore };
struct ComputeReplay {
  double compute_ms_per_cycle = 0;
  double jobs_resummed_per_cycle = 0;
  double algorithm_runs_per_cycle = 0;
  std::uint64_t cycles = 0;
};
[[nodiscard]] ComputeReplay replay_compute(ComputePath path, std::size_t stages,
                                           std::size_t aggregators,
                                           const DemandModel& model,
                                           sds::core::Budgets budgets,
                                           std::uint64_t cycles);

}  // namespace sdsbench
