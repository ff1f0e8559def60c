// live_tcp_flat_64: the live runtime over loopback TCP. One
// GlobalControllerServer and two StageHosts of 32 stages each (one TCP
// connection per stage, as the paper deploys them), seeded constant
// demand above a contended budget, and one caller thread calling
// run_cycle() back to back (closed loop, one client) after a warm-up.
//
// A run builds several deployments in turn, so set-up time (bind to full
// roster) has a median; cycle latencies are pooled across deployments.
// The traced run alternates plain and decorated deployments: the plain
// ones give the tracing overhead's baseline, the decorated ones the
// per-layer numbers.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "decorators.h"
#include "policy/psfa.h"
#include "replay.h"
#include "runtime/global_server.h"
#include "runtime/stage_host.h"
#include "transport/tcp.h"
#include "workloads.h"

namespace sdsbench {

namespace {

using sds::Nanos;
using sds::stage::Dimension;

constexpr std::size_t kHosts = 2;
constexpr std::size_t kStagesPerHost = 32;
constexpr std::size_t kStages = kHosts * kStagesPerHost;
constexpr std::size_t kStagesPerJob = 8;
constexpr double kBudgetFactor = 0.6;  // contended
constexpr double kWarmupSeconds = 0.3;
/// Closed-loop time between two host-speed calibrations.
constexpr double kCalibrationEveryS = 0.5;

sds::core::Budgets live_budgets() {
  const auto n = static_cast<double>(kStages);
  return {kBudgetFactor * n * 1000.0, kBudgetFactor * n * 100.0};
}

DemandModel live_model(std::uint64_t seed) {
  DemandModel model;
  model.seed = seed;
  model.stages_per_job = kStagesPerJob;
  return model;  // churn_period 0: constant demand
}

/// Cumulative counters of every decorated endpoint plus the algorithm
/// decorator; a deployment's figures are the difference of two snapshots.
struct TraceSnapshot {
  std::uint64_t msgs = 0, bytes = 0, send_ns = 0;
  std::uint64_t global_frames = 0, global_handler_ns = 0;
  std::uint64_t host_frames = 0, host_handler_ns = 0;
  std::int64_t loop_cpu_ns = 0;  // Σ (loop thread clock − handler CPU)
  std::uint64_t algorithm_runs = 0, algorithm_ns = 0;

  TraceSnapshot& operator+=(const TraceSnapshot& o) {
    msgs += o.msgs;
    bytes += o.bytes;
    send_ns += o.send_ns;
    global_frames += o.global_frames;
    global_handler_ns += o.global_handler_ns;
    host_frames += o.host_frames;
    host_handler_ns += o.host_handler_ns;
    loop_cpu_ns += o.loop_cpu_ns;
    algorithm_runs += o.algorithm_runs;
    algorithm_ns += o.algorithm_ns;
    return *this;
  }
  TraceSnapshot operator-(const TraceSnapshot& o) const {
    TraceSnapshot d = *this;
    d.msgs -= o.msgs;
    d.bytes -= o.bytes;
    d.send_ns -= o.send_ns;
    d.global_frames -= o.global_frames;
    d.global_handler_ns -= o.global_handler_ns;
    d.host_frames -= o.host_frames;
    d.host_handler_ns -= o.host_handler_ns;
    d.loop_cpu_ns -= o.loop_cpu_ns;
    d.algorithm_runs -= o.algorithm_runs;
    d.algorithm_ns -= o.algorithm_ns;
    return d;
  }
};

/// A stretch of the closed loop between two host-speed calibrations.
struct Segment {
  std::size_t calibration = 0;  // index of the calibration just before it
  double wall_s = 0;
  double cpu_s = 0;
};

/// Everything one deployment measured.
struct DeploymentRun {
  std::string error;
  double setup_s = 0;
  std::size_t setup_calibration = 0;
  double measured_s = 0;
  double cpu_s = 0;
  std::vector<Segment> segments;
  std::vector<std::uint32_t> cycle_segment;
  std::uint64_t cycles = 0;
  std::uint64_t errored = 0;
  std::uint64_t degraded = 0;
  std::uint64_t stale = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t demand_queries = 0;
  std::vector<double> cycle_ms;
  std::vector<std::string> violations;
  // Decorated deployments only.
  std::vector<double> phase_ms[5];
  TraceSnapshot trace;
};

void add_endpoint(TraceSnapshot& s, const sds::transport::Endpoint* endpoint,
                  bool global) {
  const auto* timed = dynamic_cast<const TimingEndpoint*>(endpoint);
  if (timed == nullptr) return;
  const EndpointStats& st = timed->stats();
  const auto r = std::memory_order_relaxed;
  s.msgs += st.msgs_sent.load(r);
  s.bytes += st.bytes_sent.load(r);
  s.send_ns += st.send_ns.load(r);
  (global ? s.global_frames : s.host_frames) += st.frames_handled.load(r);
  (global ? s.global_handler_ns : s.host_handler_ns) += st.handler_ns.load(r);
  s.loop_cpu_ns += st.loop_cpu_ns.load(r) -
                   static_cast<std::int64_t>(st.handler_cpu_ns.load(r));
}

DeploymentRun run_deployment(std::uint64_t seed, double seconds, bool traced,
                             std::vector<Calibration>& calibrations) {
  DeploymentRun run;
  const DemandModel model = live_model(seed);
  const sds::core::Budgets budgets = live_budgets();
  auto queries = std::make_shared<std::atomic<std::uint64_t>>(0);
  run.setup_calibration = calibrations.size() - 1;

  sds::transport::TcpNetwork tcp;
  TimingNetwork timing(tcp);
  sds::transport::Network& net =
      traced ? static_cast<sds::transport::Network&>(timing) : tcp;
  auto algorithm_stats = std::make_shared<AlgorithmStats>();
  std::unique_ptr<sds::policy::ControlAlgorithm> algorithm;
  if (traced) {
    algorithm = std::make_unique<TimingAlgorithm>(
        std::make_unique<sds::policy::Psfa>(), algorithm_stats);
  }  // else: the server's default, the same PSFA undecorated

  sds::transport::EndpointOptions endpoint_options;
  endpoint_options.max_connections = 2500;  // the paper's per-node cap
  sds::runtime::GlobalServerOptions options;
  options.core.budgets = budgets;

  const double t0 = wall_s();
  sds::runtime::GlobalControllerServer server(net, "127.0.0.1:0", options,
                                              std::move(algorithm));
  std::vector<std::unique_ptr<sds::runtime::StageHost>> hosts;
  const auto fail = [&](const std::string& what, const sds::Status& status) {
    run.error = what + ": " + status.to_string();
    for (auto& host : hosts) host->shutdown();
    server.shutdown();
    return run;
  };
  if (auto st = server.start(endpoint_options); !st.is_ok()) {
    return fail("server start", st);
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    sds::runtime::StageHostOptions host_options;
    host_options.controller_addresses = {server.address()};
    host_options.auto_failover = false;
    hosts.push_back(std::make_unique<sds::runtime::StageHost>(
        net, "127.0.0.1:0", host_options));
    auto& host = *hosts.back();
    for (std::size_t i = 0; i < kStagesPerHost; ++i) {
      const auto s = static_cast<std::uint32_t>(h * kStagesPerHost + i);
      sds::proto::StageInfo info;
      info.stage_id = sds::StageId{s};
      info.node_id = sds::NodeId{static_cast<std::uint32_t>(h)};
      info.job_id = sds::JobId{static_cast<std::uint32_t>(s / kStagesPerJob)};
      info.hostname = "host" + std::to_string(h);
      const auto demand = [model, queries, s](Dimension dim) {
        return sds::stage::DemandFn([model, queries, s, dim](Nanos t) {
          queries->fetch_add(1, std::memory_order_relaxed);
          return model.value(s, dim, t);
        });
      };
      if (auto st = host.add_stage(info, demand(Dimension::kData),
                                   demand(Dimension::kMeta));
          !st.is_ok()) {
        return fail("add_stage", st);
      }
    }
    if (auto st = host.start(endpoint_options); !st.is_ok()) {
      return fail("host start", st);
    }
    if (auto st = host.register_all(); !st.is_ok()) {
      return fail("register", st);
    }
  }
  while (server.registered_stages() < kStages) {
    if (wall_s() - t0 > 10) {
      return fail("registration", sds::Status::unavailable("roster incomplete"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  run.setup_s = wall_s() - t0;

  // Warm-up, then the measured closed loop.
  const double warm_end = wall_s() + kWarmupSeconds;
  while (wall_s() < warm_end) (void)server.run_cycle();

  const auto endpoints = [&] {
    std::vector<std::pair<sds::transport::Endpoint*, bool>> out;
    out.emplace_back(server.endpoint(), true);
    for (auto& host : hosts) out.emplace_back(host->endpoint(), false);
    return out;
  };
  const auto wire_bytes = [&] {
    std::uint64_t total = 0;
    for (const auto& [ep, global] : endpoints()) total += ep->counters().bytes_sent;
    return total;
  };
  const auto trace_snapshot = [&] {
    TraceSnapshot s;
    for (const auto& [ep, global] : endpoints()) add_endpoint(s, ep, global);
    s.algorithm_runs = algorithm_stats->runs.load();
    s.algorithm_ns = algorithm_stats->ns.load();
    return s;
  };

  const std::uint64_t degraded0 = server.stats().degraded_cycles();
  const std::uint64_t stale0 = server.stats().stale_stages();
  const std::uint64_t bytes0 = wire_bytes();
  const std::uint64_t queries0 = queries->load();
  const TraceSnapshot trace0 = trace_snapshot();
  const double cpu0 = process_cpu_s();
  const double start = wall_s();
  double end = start + seconds;
  Segment segment{calibrations.size() - 1, 0, 0};
  double segment_start = start;
  double segment_cpu = cpu0;
  const auto close_segment = [&](double at) {
    segment.wall_s = at - segment_start;
    segment.cpu_s = process_cpu_s() - segment_cpu;
    run.segments.push_back(segment);
  };
  run.cycle_ms.reserve(static_cast<std::size_t>(seconds * 2000));
  double now = start;
  while (now < end) {
    if (now - segment_start >= kCalibrationEveryS) {
      // The loop threads are idle between cycles, so the calibration
      // pauses the loop; the pause belongs to no segment.
      close_segment(now);
      calibrations.push_back(calibrate());
      segment = {calibrations.size() - 1, 0, 0};
      segment_start = wall_s();
      segment_cpu = process_cpu_s();
      end += segment_start - now;
    }
    const std::int64_t c0 = wall_ns();
    auto breakdown = server.run_cycle();
    const std::int64_t c1 = wall_ns();
    now = static_cast<double>(c1) * 1e-9;
    ++run.cycles;
    run.cycle_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
    run.cycle_segment.push_back(static_cast<std::uint32_t>(run.segments.size()));
    if (!breakdown.is_ok()) {
      ++run.errored;
      continue;
    }
    if (traced) {
      const sds::core::PhaseBreakdown& b = *breakdown;
      const Nanos phases[5] = {b.collect, b.aggregate, b.compute, b.disseminate,
                               b.enforce};
      for (int p = 0; p < 5; ++p) run.phase_ms[p].push_back(sds::to_millis(phases[p]));
    }
  }
  close_segment(wall_s());
  for (const Segment& s : run.segments) {
    run.measured_s += s.wall_s;
    run.cpu_s += s.cpu_s;
  }
  run.wire_bytes = wire_bytes() - bytes0;
  run.demand_queries = queries->load() - queries0;
  run.degraded = server.stats().degraded_cycles() - degraded0;
  run.stale = server.stats().stale_stages() - stale0;
  if (traced) run.trace = trace_snapshot() - trace0;

  // Output checks: every stage holds a limit, and the enforced limits
  // stay within the budget.
  double data = 0;
  double meta = 0;
  std::size_t missing = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (std::size_t i = 0; i < kStagesPerHost; ++i) {
      const sds::StageId id{static_cast<std::uint32_t>(h * kStagesPerHost + i)};
      auto d = hosts[h]->stage_limit(id, Dimension::kData);
      auto m = hosts[h]->stage_limit(id, Dimension::kMeta);
      if (!d.is_ok() || !m.is_ok() || *d < 0 || *m < 0) {
        ++missing;
        continue;
      }
      data += *d;
      meta += *m;
    }
  }
  if (missing > 0) {
    run.violations.push_back(std::to_string(missing) + " stages hold no limit");
  }
  if (data > budgets.data_iops * (1 + 1e-9) ||
      meta > budgets.meta_iops * (1 + 1e-9)) {
    run.violations.push_back("enforced limits exceed the budget");
  }
  for (auto& host : hosts) host->shutdown();
  server.shutdown();
  return run;
}

/// `run` with its times at the reference speed: each segment scaled by
/// the calibrations on either side of it, the set-up by the ones around
/// it (the deployment's first calibration follows its set-up).
DeploymentRun at_reference_speed(const DeploymentRun& run,
                                 const std::vector<Calibration>& calibrations) {
  const auto factor = [&](std::size_t i) {
    return speed_factor(calibrations[i], calibrations[i + 1]);
  };
  DeploymentRun out = run;
  out.setup_s = run.setup_s * factor(run.setup_calibration);
  out.measured_s = 0;
  out.cpu_s = 0;
  for (const Segment& s : run.segments) {
    out.measured_s += s.wall_s * factor(s.calibration);
    out.cpu_s += s.cpu_s * factor(s.calibration);
  }
  for (std::size_t i = 0; i < out.cycle_ms.size(); ++i) {
    out.cycle_ms[i] *= factor(run.segments[run.cycle_segment[i]].calibration);
  }
  return out;
}

}  // namespace

RunReport run_live_workload(const Args& args) {
  RunReport report;
  // Untraced: 8 deployments. Traced: 4 plain + 4 decorated, alternating.
  const int deployments = 8;
  const double per_deployment =
      std::max(0.2, args.seconds / deployments - kWarmupSeconds);
  std::vector<DeploymentRun> plain;
  std::vector<DeploymentRun> traced;
  // The host's speed is sampled before and after every deployment and
  // every kCalibrationEveryS of closed loop inside one (README.md, "Host
  // speed").
  std::vector<Calibration> calibrations = {calibrate()};
  for (int d = 0; d < deployments; ++d) {
    const bool decorate = args.trace && d % 2 == 1;
    DeploymentRun run =
        run_deployment(args.seed, per_deployment, decorate, calibrations);
    calibrations.push_back(calibrate());
    if (!run.error.empty()) {
      report.check_failures.push_back(run.error);
      report.attempted += kStages;
      report.failed += kStages;
      continue;
    }
    for (const auto& v : run.violations) report.check_failures.push_back(v);
    report.attempted += run.cycles * kStages;
    report.failed += (run.errored + run.degraded) * kStages + run.stale;
    (decorate ? traced : plain).push_back(std::move(run));
  }
  if (plain.empty()) return report;

  // Deployments are measured one after the other, so host interference
  // that hits one of them shows in its figures only: every timing is the
  // median over deployments of that deployment's own value.
  struct Summary {
    std::uint64_t cycles = 0;
    int tail = 0;
    double rate = 0, p50 = 0, tail_ms = 0, cpu_ms = 0, setup = 0;
    double wire_kb = 0, queries = 0;
  };
  const auto summarize = [](const std::vector<DeploymentRun>& runs) {
    Summary out;
    std::vector<double> rate, p50, tail_ms, cpu_ms, setup;
    std::uint64_t wire = 0;
    std::uint64_t queries = 0;
    // One tail percentile for every deployment, set by the shortest.
    out.tail = kTailCap;
    for (const auto& r : runs) {
      out.tail = std::min(out.tail, tail_or_median(r.cycle_ms.size()));
    }
    for (const auto& r : runs) {
      out.cycles += r.cycles;
      wire += r.wire_bytes;
      queries += r.demand_queries;
      std::vector<double> sorted = r.cycle_ms;
      std::sort(sorted.begin(), sorted.end());
      rate.push_back(static_cast<double>(r.cycles) / r.measured_s);
      p50.push_back(percentile_sorted(sorted, 50));
      tail_ms.push_back(percentile_sorted(sorted, out.tail));
      cpu_ms.push_back(r.cpu_s * 1e3 / static_cast<double>(r.cycles));
      setup.push_back(r.setup_s);
    }
    out.rate = median(rate);
    out.p50 = median(p50);
    out.tail_ms = median(tail_ms);
    out.cpu_ms = median(cpu_ms);
    out.setup = median(setup);
    out.wire_kb = static_cast<double>(wire) / static_cast<double>(out.cycles) / 1e3;
    out.queries = static_cast<double>(queries) / static_cast<double>(out.cycles);
    return out;
  };
  report.host_speed = host_speed(calibrations);
  if (report.host_speed.factor <= 0) {
    report.check_failures.push_back("host-speed calibration failed");
    return report;
  }
  const Summary base = summarize(plain);
  std::vector<DeploymentRun> plain_ref;
  for (const auto& r : plain) plain_ref.push_back(at_reference_speed(r, calibrations));
  const Summary ref = summarize(plain_ref);
  const auto n = static_cast<std::uint64_t>(plain.size());

  if (!args.trace) {
    auto& m = report.metrics;
    m.push_back({"cycles_per_s", "1/s", ref.rate, base.cycles});
    m.push_back({"cycle_ms_p50", "ms", ref.p50, base.cycles});
    m.push_back({"cycle_ms_tail", "ms", ref.tail_ms, base.cycles});
    m.push_back({"setup_s", "s", ref.setup, n});
    m.push_back({"cpu_ms_per_cycle", "ms", ref.cpu_ms, base.cycles});
    m.push_back({"peak_rss_mb", "MB", peak_rss_mb(), 1});
    m.push_back({"wire_kb_per_cycle", "kB", base.wire_kb, base.cycles});
    // p99 is printed but not bounded: on a shared host it is set by the
    // 2-3% of cycles that a host hiccup stretches (README.md).
    std::vector<double> pooled;
    for (const auto& r : plain) {
      pooled.insert(pooled.end(), r.cycle_ms.begin(), r.cycle_ms.end());
    }
    std::sort(pooled.begin(), pooled.end());
    report.detail_json = Json()
                             .integer("cycle_ms_tail_percentile", base.tail)
                             .num("cycle_ms_p99", percentile_sorted(pooled, 99))
                             .integer("cycle_ms_p99_samples", pooled.size())
                             .integer("deployments", n)
                             .raw("measured", Json()
                                                  .num("cycles_per_s", base.rate)
                                                  .num("cycle_ms_p50", base.p50)
                                                  .num("cycle_ms_tail", base.tail_ms)
                                                  .num("setup_s", base.setup)
                                                  .num("cpu_ms_per_cycle", base.cpu_ms)
                                                  .done())
                             .done();
    return report;
  }
  if (traced.empty()) return report;

  const Summary dec = summarize(traced);
  const double dcycles = static_cast<double>(dec.cycles);
  TraceSnapshot sum;
  std::vector<double> phases[5];
  for (const auto& r : traced) {
    sum += r.trace;
    for (int p = 0; p < 5; ++p) {
      phases[p].insert(phases[p].end(), r.phase_ms[p].begin(), r.phase_ms[p].end());
    }
  }
  const auto ratio = [](double a, std::uint64_t b) {
    return b > 0 ? a / static_cast<double>(b) : 0;
  };
  // The compute replay at this workload's scale: 64 stages on the flat
  // store path the live server runs.
  const ComputeReplay compute = replay_compute(
      ComputePath::kFlatStore, kStages, 0, live_model(args.seed), live_budgets(), 2000);
  const FoldReplay fold = replay_fold(kStages, live_model(args.seed), false, 2000);

  auto& m = report.metrics;
  m.push_back({"transport.send_us_per_msg", "us",
               ratio(static_cast<double>(sum.send_ns) * 1e-3, sum.msgs), sum.msgs});
  m.push_back({"transport.msgs_per_cycle", "count",
               static_cast<double>(sum.msgs) / dcycles, dec.cycles});
  m.push_back({"transport.bytes_per_cycle", "B",
               static_cast<double>(sum.bytes) / dcycles, dec.cycles});
  m.push_back({"runtime.global_handler_us_per_frame", "us",
               ratio(static_cast<double>(sum.global_handler_ns) * 1e-3, sum.global_frames),
               sum.global_frames});
  m.push_back({"runtime.host_handler_us_per_frame", "us",
               ratio(static_cast<double>(sum.host_handler_ns) * 1e-3, sum.host_frames),
               sum.host_frames});
  m.push_back({"transport.loop_cpu_ms_per_cycle", "ms",
               static_cast<double>(sum.loop_cpu_ns) * 1e-6 / dcycles, dec.cycles});
  const char* names[5] = {"runtime.collect_ms_p50", "runtime.aggregate_ms_p50",
                          "runtime.compute_ms_p50", "runtime.disseminate_ms_p50",
                          "runtime.enforce_ms_p50"};
  for (int p = 0; p < 5; ++p) {
    m.push_back({names[p], "ms", median(phases[p]), phases[p].size()});
  }
  m.push_back({"policy.algorithm_us_per_run", "us",
               ratio(static_cast<double>(sum.algorithm_ns) * 1e-3, sum.algorithm_runs),
               sum.algorithm_runs});
  m.push_back({"policy.algorithm_runs_per_cycle", "count",
               static_cast<double>(sum.algorithm_runs) / dcycles, dec.cycles});
  m.push_back({"core.compute_ms_per_cycle", "ms", compute.compute_ms_per_cycle,
               compute.cycles});
  m.push_back({"core.jobs_resummed_per_cycle", "count",
               compute.jobs_resummed_per_cycle, compute.cycles});
  m.push_back({"core.store_fold_ns_per_report", "ns", fold.fold_ns_per_report,
               fold.reports});
  m.push_back({"proto.delta_make_ns_per_report", "ns",
               fold.delta_make_ns_per_report, fold.reports});
  m.push_back({"stage.demand_queries_per_cycle", "count", dec.queries, dec.cycles});
  m.push_back({"bench.trace_overhead_pct", "%",
               100.0 * (base.rate - dec.rate) / base.rate, base.cycles + dec.cycles});
  report.detail_json = Json()
                           .num("untraced_cycles_per_s", base.rate)
                           .num("traced_cycles_per_s", dec.rate)
                           .done();
  return report;
}

}  // namespace sdsbench
