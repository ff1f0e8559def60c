// Simulated workloads: sim_hier_100k_churn and sim_flat_2500_faults.
//
// A run repeats one fixed-length experiment (same seed, same inputs):
// one warm-up repetition, then repetitions until the measuring time is
// used up (at least three, so set-up time has a median). Every
// repetition's outputs must be bit-identical to the warm-up's, whose
// outputs are also printed for the reference check.
//
// Wall time is observed from the benchmark's own demand callbacks — the
// only code of ours the simulator calls while it runs:
//  * set-up ends at the first demand query (the simulator queries demand
//    only once its event loop runs);
//  * cycle n starts at the first query at or after virtual time b_n,
//    where b_n is the sum of the warm-up's first n cycle latencies
//    (cycles run back to back in stress mode, and every repetition
//    replays the same virtual schedule).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>

#include "fault/plan.h"
#include "replay.h"
#include "sim/experiment.h"
#include "workloads.h"

namespace sdsbench {

namespace {

using sds::Nanos;
using sds::stage::Dimension;

struct SimSpec {
  std::string name;
  std::size_t stages = 0;
  std::size_t aggregators = 0;
  std::size_t stages_per_job = 50;
  bool delta_collect = false;
  bool faults = false;
  std::uint32_t churn_period = 0;
  /// Demand epoch (about one simulated cycle, so churn is per cycle).
  Nanos epoch{0};
  /// Budget as a multiple of the expected total demand (> 1: slack).
  double budget_factor = 1.0;
  /// Cycles per repetition (at most CycleStats::kRecentCapacity, so all
  /// of the warm-up's cycle latencies are still in the recent ring).
  std::uint64_t cycles_per_rep = 0;
  ComputePath compute_path = ComputePath::kFlatBatch;
};

const std::vector<SimSpec>& sim_specs() {
  static const std::vector<SimSpec> specs = [] {
    SimSpec hier;
    hier.name = "sim_hier_100k_churn";
    hier.stages = 100'000;
    hier.aggregators = 50;
    hier.delta_collect = true;
    hier.churn_period = 100;  // ~1% of jobs move per epoch
    hier.epoch = sds::millis(500);  // ~ one simulated cycle (557 ms at seed 1)
    hier.budget_factor = 2.0;  // uncontended: incremental PSFA re-splits only movers
    hier.cycles_per_rep = 8;
    hier.compute_path = ComputePath::kHierStore;

    SimSpec flat;
    flat.name = "sim_flat_2500_faults";
    flat.stages = 2'500;
    flat.faults = true;
    flat.epoch = sds::millis(1);
    flat.budget_factor = 0.6;  // contended
    flat.cycles_per_rep = 64;
    flat.compute_path = ComputePath::kFlatBatch;
    return std::vector<SimSpec>{hier, flat};
  }();
  return specs;
}

DemandModel model_for(const SimSpec& spec, std::uint64_t seed) {
  DemandModel model;
  model.seed = seed;
  model.stages_per_job = spec.stages_per_job;
  model.churn_period = spec.churn_period;
  model.epoch = spec.epoch;
  return model;
}

sds::core::Budgets budgets_for(const SimSpec& spec) {
  const auto n = static_cast<double>(spec.stages);
  // Expected demand per stage: 1000 data ops/s, 100 meta ops/s.
  return {spec.budget_factor * n * 1000.0, spec.budget_factor * n * 100.0};
}

// Fig. 7's plan, seeded from the benchmark seed.
sds::fault::FaultPlan fault_plan_for(std::uint64_t seed) {
  sds::fault::FaultPlan plan;
  plan.seed = mix64(seed ^ 0xFA17u);
  plan.quorum = 0.9;
  plan.phase_timeout = sds::millis(50);
  plan.stage_mtbf_s = 60;
  plan.stage_downtime_s = 2;
  plan.drop_probability = 0.01;
  plan.delay_probability = 0.05;
  plan.delay = sds::micros(200);
  return plan;
}

/// Shared by every demand callback of one repetition. Queries are
/// counted only in the traced run: the simulator's utilization sampler
/// queries every stage every 50 ms of simulated time (~2.4 M queries per
/// hierarchical cycle), so an atomic increment each would be measurable.
class Probe {
 public:
  Probe(std::vector<Nanos> boundaries, bool count_queries)
      : boundaries_(std::move(boundaries)),
        count_queries_(count_queries),
        mark_ns_(boundaries_.size(), 0),
        mark_cpu_(boundaries_.size(), 0) {}

  void on_query(Nanos t) {
    if (count_queries_) queries_.fetch_add(1, std::memory_order_relaxed);
    if (!started_.load(std::memory_order_relaxed)) {
      bool expected = false;
      if (started_.compare_exchange_strong(expected, true)) {
        first_ns_ = wall_ns();
        first_cpu_ = process_cpu_s();
      }
    }
    std::size_t i = next_.load(std::memory_order_relaxed);
    if (i < boundaries_.size() && t >= boundaries_[i] &&
        next_.compare_exchange_strong(i, i + 1)) {
      mark_ns_[i] = wall_ns();
      mark_cpu_[i] = process_cpu_s();
    }
  }

  // Read only after run_experiment returned (all lanes joined).
  [[nodiscard]] bool started() const { return started_.load(); }
  [[nodiscard]] std::uint64_t queries() const { return queries_.load(); }
  [[nodiscard]] std::int64_t first_ns() const { return first_ns_; }
  [[nodiscard]] bool all_marked() const {
    return next_.load() == boundaries_.size();
  }
  /// Wall ns at which cycle n started (n = 0 is the first query).
  [[nodiscard]] std::int64_t cycle_start_ns(std::size_t n) const {
    return n == 0 ? first_ns_ : mark_ns_[n - 1];
  }
  [[nodiscard]] double cycle_start_cpu(std::size_t n) const {
    return n == 0 ? first_cpu_ : mark_cpu_[n - 1];
  }

 private:
  const std::vector<Nanos> boundaries_;
  const bool count_queries_;
  std::atomic<bool> started_{false};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::int64_t first_ns_ = 0;
  double first_cpu_ = 0;
  std::vector<std::int64_t> mark_ns_;
  std::vector<double> mark_cpu_;
};

struct Rep {
  bool ok = false;
  std::string error;
  sds::sim::ExperimentResult result;
  double setup_s = 0;
  /// Wall from the first demand query to run_experiment's return.
  double run_s = 0;
  double total_s = 0;
  std::vector<double> cycle_ms;
  double cycles_per_s = 0;
  double cpu_ms_per_cycle = 0;
  std::uint64_t queries = 0;
  std::string outputs;
  std::string digest;
  std::vector<std::string> violations;
  double budget_overshoot_pct = 0;
  /// Host-speed factor from the calibrations just before and after the
  /// stretch of repetitions this one ran in.
  double speed = 0;
  std::size_t calibration = 0;
};

// Outputs the reference check compares: cycles, virtual-time phase
// means, degraded/stale/fault counts and the final per-stage limits
// (every `stride`-th stage, plus per-job sums over all stages). The
// digest covers the same values and every stage's limits, exactly.
void record_outputs(const SimSpec& spec, Rep& rep) {
  const auto& r = rep.result;
  const auto& s = r.stats;
  const double phase[] = {s.collect().mean() * 1e-6, s.aggregate().mean() * 1e-6,
                          s.compute().mean() * 1e-6,
                          s.disseminate().mean() * 1e-6,
                          s.enforce().mean() * 1e-6, s.total().mean() * 1e-6};
  const std::size_t stride =
      (spec.stages + 2499) / 2500;  // at most 2,500 sampled stages
  const std::size_t jobs =
      (spec.stages + spec.stages_per_job - 1) / spec.stages_per_job;
  std::vector<double> data_sampled;
  std::vector<double> meta_sampled;
  std::vector<double> job_data(jobs, 0.0);
  std::vector<double> job_meta(jobs, 0.0);
  Digest digest;
  digest.add(r.cycles);
  for (const double p : phase) digest.add(p);
  digest.add(r.degraded_cycles);
  digest.add(r.stale_stage_reports);
  digest.add(r.faults_injected);
  for (std::size_t i = 0; i < r.final_data_limits.size(); ++i) {
    const double d = r.final_data_limits[i];
    const double m = i < r.final_meta_limits.size() ? r.final_meta_limits[i] : 0;
    digest.add(d);
    digest.add(m);
    if (i % stride == 0) {
      data_sampled.push_back(d);
      meta_sampled.push_back(m);
    }
    job_data[i / spec.stages_per_job] += std::max(d, 0.0);
    job_meta[i / spec.stages_per_job] += std::max(m, 0.0);
  }
  rep.digest = digest.hex();
  rep.outputs =
      Json()
          .integer("cycles", r.cycles)
          .raw("phase_mean_ms", Json()
                                    .num("collect", phase[0])
                                    .num("aggregate", phase[1])
                                    .num("compute", phase[2])
                                    .num("disseminate", phase[3])
                                    .num("enforce", phase[4])
                                    .num("total", phase[5])
                                    .done())
          .integer("degraded_cycles", r.degraded_cycles)
          .integer("stale_stage_reports", r.stale_stage_reports)
          .integer("faults_injected", r.faults_injected)
          .integer("limit_stride", stride)
          .nums("data_limits", data_sampled)
          .nums("meta_limits", meta_sampled)
          .nums("job_data_limit_sums", job_data)
          .nums("job_meta_limit_sums", job_meta)
          .done();
}

void check_invariants(const SimSpec& spec, Rep& rep) {
  const auto& r = rep.result;
  auto& v = rep.violations;
  if (r.cycles != spec.cycles_per_rep) {
    v.push_back("ran " + std::to_string(r.cycles) + " cycles, expected " +
                std::to_string(spec.cycles_per_rep));
  }
  if (r.final_data_limits.size() != spec.stages ||
      r.final_meta_limits.size() != spec.stages) {
    v.push_back("final limits do not cover every stage");
    return;
  }
  const sds::core::Budgets budgets = budgets_for(spec);
  double data = 0;
  double meta = 0;
  std::size_t unlimited = 0;
  for (std::size_t i = 0; i < spec.stages; ++i) {
    if (r.final_data_limits[i] < 0 || r.final_meta_limits[i] < 0) ++unlimited;
    data += std::max(r.final_data_limits[i], 0.0);
    meta += std::max(r.final_meta_limits[i], 0.0);
  }
  rep.budget_overshoot_pct =
      100.0 * std::max({0.0, data / budgets.data_iops - 1.0,
                        meta / budgets.meta_iops - 1.0});
  // Under a fault plan the limits stages hold overshoot the budget: the
  // legacy batch path computes a degraded cycle over the received
  // stages only, while the silent ones keep their earlier limits. That
  // is a known defect of this commit; it is reported
  // (fault.budget_overshoot_pct) and pinned by the reference outputs
  // instead of failing every faulted run.
  if (!spec.faults && rep.budget_overshoot_pct > 1e-7) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "enforced limits exceed the budget (data %.6g of %.6g, "
                  "meta %.6g of %.6g)",
                  data, budgets.data_iops, meta, budgets.meta_iops);
    v.push_back(buf);
  }
  // Without faults every stage answers every cycle, so each must hold
  // a limit after the run.
  if (!spec.faults && unlimited > 0) {
    v.push_back(std::to_string(unlimited) + " stages hold no limit");
  }
}

Rep run_rep(const SimSpec& spec, const Args& args,
            const std::vector<Nanos>& boundaries,
            const sds::fault::FaultPlan* plan) {
  Probe probe(boundaries, args.trace);
  const DemandModel model = model_for(spec, args.seed);

  sds::sim::ExperimentConfig config;
  config.num_stages = spec.stages;
  config.num_aggregators = spec.aggregators;
  config.stages_per_job = spec.stages_per_job;
  config.duration = sds::seconds(3600);  // max_cycles is the real bound
  config.max_cycles = spec.cycles_per_rep;
  config.delta_collect = spec.delta_collect;
  config.budgets = budgets_for(spec);
  config.seed = mix64(args.seed ^ 0x5EEDu);
  config.fault_plan = plan;
  const DemandModel* m = &model;
  Probe* p = &probe;
  config.demand_factory = [m, p](sds::StageId stage, Dimension dim) {
    return sds::stage::DemandFn([m, p, s = stage.value(), dim](Nanos t) {
      p->on_query(t);
      return m->value(s, dim, t);
    });
  };

  Rep rep;
  const std::int64_t call_ns = wall_ns();
  auto result = sds::sim::run_experiment(config);
  const std::int64_t end_ns = wall_ns();
  rep.total_s = static_cast<double>(end_ns - call_ns) * 1e-9;
  if (!result.is_ok()) {
    rep.error = result.status().to_string();
    return rep;
  }
  if (!probe.started()) {
    rep.error = "no demand query observed";
    return rep;
  }
  rep.ok = true;
  rep.result = std::move(*result);
  rep.queries = probe.queries();
  rep.setup_s = static_cast<double>(probe.first_ns() - call_ns) * 1e-9;
  rep.run_s = static_cast<double>(end_ns - probe.first_ns()) * 1e-9;
  if (!boundaries.empty() && probe.all_marked()) {
    const std::size_t last = boundaries.size();  // cycle C-1's start
    for (std::size_t n = 0; n < last; ++n) {
      rep.cycle_ms.push_back(
          static_cast<double>(probe.cycle_start_ns(n + 1) -
                              probe.cycle_start_ns(n)) *
          1e-6);
    }
    const double span_s =
        static_cast<double>(probe.cycle_start_ns(last) - probe.cycle_start_ns(0)) *
        1e-9;
    rep.cycles_per_s = static_cast<double>(last) / span_s;
    rep.cpu_ms_per_cycle =
        (probe.cycle_start_cpu(last) - probe.cycle_start_cpu(0)) * 1e3 /
        static_cast<double>(last);
  }
  record_outputs(spec, rep);
  check_invariants(spec, rep);
  return rep;
}

std::vector<Nanos> cycle_boundaries(const sds::sim::ExperimentResult& r) {
  const auto recent = r.stats.recent();
  std::vector<Nanos> out;
  if (recent.size() != r.cycles || recent.size() < 2) return out;
  Nanos at{0};  // the first cycle starts at virtual time 0
  for (std::size_t n = 0; n + 1 < recent.size(); ++n) {
    at += recent[n].breakdown.total();
    out.push_back(at);
  }
  return out;
}

/// Shortest stretch of repetitions between two host-speed calibrations.
constexpr double kCalibrationEveryS = 0.5;

double per_cycle(double total, std::uint64_t cycles) {
  return cycles > 0 ? total / static_cast<double>(cycles) : 0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim_hier_100k_churn", "sim_flat_2500_faults", "live_tcp_flat_64"};
  return names;
}

RunReport run_sim_workload(const Args& args) {
  const SimSpec* found = nullptr;
  for (const auto& s : sim_specs()) {
    if (s.name == args.workload) found = &s;
  }
  RunReport report;
  if (found == nullptr) {
    report.check_failures.push_back("unknown sim workload " + args.workload);
    return report;
  }
  const SimSpec& spec = *found;
  const sds::fault::FaultPlan plan = fault_plan_for(args.seed);
  const sds::fault::FaultPlan* plan_ptr = spec.faults ? &plan : nullptr;
  const double start = wall_s();

  const Rep warm = run_rep(spec, args, {}, plan_ptr);
  report.attempted = 1;
  if (!warm.ok) {
    report.failed = 1;
    report.check_failures.push_back("warm-up: " + warm.error);
    return report;
  }
  const std::vector<Nanos> boundaries = cycle_boundaries(warm.result);
  if (boundaries.empty()) {
    report.check_failures.push_back("warm-up kept no per-cycle latencies");
  }
  report.outputs_json = warm.outputs;
  report.rep_digests.push_back(warm.digest);
  if (!warm.violations.empty()) {
    report.failed = 1;
    for (const auto& v : warm.violations) report.check_failures.push_back("warm-up: " + v);
  }

  // The traced run spends half its time on repetitions and the rest on
  // the replay pass.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const double hard_stop = start + args.seconds + 90;
  std::vector<Rep> reps;
  double measured = 0;
  double rss_mb = 0;
  // The host's speed is sampled before the first repetition and after
  // every kCalibrationEveryS of them (README.md, "Host speed").
  std::vector<Calibration> calibrations = {calibrate()};
  double calibrated_at = wall_s();
  while ((reps.size() < 3 || measured < budget) && wall_s() < hard_stop) {
    Rep rep = run_rep(spec, args, boundaries, plan_ptr);
    rep.calibration = calibrations.size() - 1;
    measured += rep.total_s;
    ++report.attempted;
    if (!rep.ok) {
      ++report.failed;
      report.check_failures.push_back("repetition: " + rep.error);
      break;
    }
    report.rep_digests.push_back(rep.digest);
    if (!rep.violations.empty() || rep.digest != warm.digest ||
        rep.cycle_ms.empty()) {
      ++report.failed;
      for (const auto& v : rep.violations) report.check_failures.push_back(v);
      if (rep.digest != warm.digest) {
        report.check_failures.push_back("outputs differ between repetitions");
      }
      if (rep.cycle_ms.empty()) {
        report.check_failures.push_back("cycle boundaries not observed");
      }
    }
    rep.result.final_data_limits.clear();
    rep.result.final_meta_limits.clear();
    reps.push_back(std::move(rep));
    // Repeated experiments fragment the heap, so the high-water mark is
    // read after a fixed amount of work: the warm-up plus three
    // repetitions.
    if (reps.size() == 3) rss_mb = peak_rss_mb();
    if (wall_s() - calibrated_at >= kCalibrationEveryS) {
      calibrations.push_back(calibrate());
      calibrated_at = wall_s();
    }
  }
  calibrations.push_back(calibrate());
  if (reps.empty()) return report;
  report.host_speed = host_speed(calibrations);
  if (report.host_speed.factor <= 0) {
    report.check_failures.push_back("host-speed calibration failed");
    return report;
  }
  // Each repetition is scaled by the calibrations on either side of its
  // stretch, so a host that changes speed within the run is followed.
  for (Rep& rep : reps) {
    rep.speed = speed_factor(calibrations[rep.calibration],
                             calibrations[rep.calibration + 1]);
  }

  // Every repetition replays the same cycles, so cycle n's wall time is
  // taken as its median over the repetitions: host interference that
  // hits one repetition does not reach the per-cycle figures.
  std::vector<double> cycle_ms;
  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<double> cpu;
  // The *_ref figures are at the reference speed.
  std::vector<double> cycle_ms_ref, setup_ref, rate_ref, cpu_ref;
  for (std::size_t n = 0; n < reps.front().cycle_ms.size(); ++n) {
    std::vector<double> across;
    std::vector<double> across_ref;
    for (const Rep& rep : reps) {
      if (n >= rep.cycle_ms.size()) continue;
      across.push_back(rep.cycle_ms[n]);
      across_ref.push_back(rep.cycle_ms[n] * rep.speed);
    }
    cycle_ms.push_back(median(across));
    cycle_ms_ref.push_back(median(across_ref));
  }
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup_s);
    rate.push_back(rep.cycles_per_s);
    cpu.push_back(rep.cpu_ms_per_cycle);
    setup_ref.push_back(rep.setup_s * rep.speed);
    rate_ref.push_back(rep.cycles_per_s / rep.speed);
    cpu_ref.push_back(rep.cpu_ms_per_cycle * rep.speed);
  }
  std::sort(cycle_ms_ref.begin(), cycle_ms_ref.end());
  std::sort(cycle_ms.begin(), cycle_ms.end());
  const auto n_reps = static_cast<std::uint64_t>(reps.size());
  const auto& r0 = reps.front().result;
  const int tail = tail_or_median(cycle_ms.size());
  const double cycle_p50 = percentile_sorted(cycle_ms, 50);

  if (!args.trace) {
    auto& m = report.metrics;
    const double tail_ms = percentile_sorted(cycle_ms, tail);
    m.push_back({"cycles_per_s", "1/s", median(rate_ref), n_reps});
    m.push_back({"cycle_ms_p50", "ms", percentile_sorted(cycle_ms_ref, 50),
                 cycle_ms.size()});
    m.push_back({"cycle_ms_tail", "ms", percentile_sorted(cycle_ms_ref, tail),
                 cycle_ms.size()});
    m.push_back({"setup_s", "s", median(setup_ref), n_reps});
    m.push_back({"cpu_ms_per_cycle", "ms", median(cpu_ref), n_reps});
    m.push_back({"peak_rss_mb", "MB", rss_mb, 1});
    m.push_back({"wire_kb_per_cycle", "kB",
                 per_cycle(static_cast<double>(r0.collect_wire_bytes), r0.cycles) / 1e3,
                 n_reps});
    report.detail_json = Json()
                             .integer("cycle_ms_tail_percentile", tail)
                             .integer("cycles_per_rep", spec.cycles_per_rep)
                             .integer("reps", n_reps)
                             .num("budget_overshoot_pct", warm.budget_overshoot_pct)
                             .raw("measured", Json()
                                                  .num("cycles_per_s", median(rate))
                                                  .num("cycle_ms_p50", cycle_p50)
                                                  .num("cycle_ms_tail", tail_ms)
                                                  .num("setup_s", median(setup))
                                                  .num("cpu_ms_per_cycle", median(cpu))
                                                  .done())
                             .nums("rep_cycles_per_s", rate)
                             .done();
    return report;
  }

  // -- Per-layer metrics (traced run) ------------------------------------
  const DemandModel model = model_for(spec, args.seed);
  const double events_per_cycle =
      per_cycle(static_cast<double>(r0.events_executed), r0.cycles);
  std::vector<double> events_rate;
  for (const Rep& rep : reps) {
    events_rate.push_back(static_cast<double>(rep.result.events_executed) / rep.run_s);
  }
  const auto replay_cycles = [](double work, double per, std::uint64_t lo) {
    return std::max<std::uint64_t>(lo, static_cast<std::uint64_t>(work / per));
  };
  const EngineReplay engine = replay_engine(
      static_cast<std::uint64_t>(events_per_cycle),
      replay_cycles(2e6, events_per_cycle, 3), args.seed);
  const FoldReplay fold =
      replay_fold(spec.stages, model, spec.delta_collect,
                  replay_cycles(5e5, static_cast<double>(spec.stages), 5));
  const ComputeReplay compute = replay_compute(
      spec.compute_path, spec.stages, spec.aggregators, model, budgets_for(spec),
      replay_cycles(2.5e5, static_cast<double>(spec.stages), 5));

  const double frames_full = static_cast<double>(r0.collect_frames_full);
  const double frames_delta = static_cast<double>(r0.collect_frames_delta);
  const double frames = frames_full + frames_delta;
  // The store path (fault-free) folds every collect frame; the legacy
  // batch path under a fault plan folds none.
  const double folds_per_cycle = spec.faults ? 0 : per_cycle(frames, r0.cycles);
  const double makes_per_cycle = per_cycle(frames_delta, r0.cycles);
  const double replayed_ms = engine.ns_per_event * events_per_cycle * 1e-6 +
                             fold.fold_ns_per_report * folds_per_cycle * 1e-6 +
                             fold.delta_make_ns_per_report * makes_per_cycle * 1e-6 +
                             compute.compute_ms_per_cycle;

  auto& m = report.metrics;
  m.push_back({"sim.events_per_cycle", "count", events_per_cycle, r0.cycles});
  m.push_back({"sim.events_per_s", "1/s", median(events_rate), n_reps});
  m.push_back({"sim.engine_ns_per_event", "ns", engine.ns_per_event, engine.events});
  m.push_back({"core.store_fold_ns_per_report", "ns", fold.fold_ns_per_report,
               fold.reports});
  m.push_back({"proto.delta_make_ns_per_report", "ns",
               fold.delta_make_ns_per_report, fold.reports});
  m.push_back({"core.compute_ms_per_cycle", "ms", compute.compute_ms_per_cycle,
               compute.cycles});
  m.push_back({"core.jobs_resummed_per_cycle", "count",
               compute.jobs_resummed_per_cycle, compute.cycles});
  m.push_back({"policy.algorithm_runs_per_cycle", "count",
               compute.algorithm_runs_per_cycle, compute.cycles});
  m.push_back({"proto.collect_bytes_per_cycle", "B",
               per_cycle(static_cast<double>(r0.collect_wire_bytes), r0.cycles),
               r0.cycles});
  m.push_back({"proto.delta_frame_share", "ratio",
               frames > 0 ? frames_delta / frames : 0,
               static_cast<std::uint64_t>(frames)});
  m.push_back({"fault.faults_per_cycle", "count",
               per_cycle(static_cast<double>(r0.faults_injected), r0.cycles),
               r0.cycles});
  m.push_back({"sim.degraded_cycle_share", "ratio",
               per_cycle(static_cast<double>(r0.degraded_cycles), r0.cycles),
               r0.cycles});
  m.push_back({"sim.stale_per_cycle", "count",
               per_cycle(static_cast<double>(r0.stale_stage_reports), r0.cycles),
               r0.cycles});
  m.push_back({"stage.demand_queries_per_cycle", "count",
               per_cycle(static_cast<double>(reps.front().queries), r0.cycles),
               r0.cycles});
  m.push_back({"sim.residual_ms_per_cycle", "ms", cycle_p50 - replayed_ms,
               cycle_ms.size()});
  m.push_back({"fault.budget_overshoot_pct", "%", warm.budget_overshoot_pct, 1});
  return report;
}

}  // namespace sdsbench
