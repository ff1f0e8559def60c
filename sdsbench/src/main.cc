// sdsbench — runs one workload once and prints its result.
//
//   sdsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   sdsbench --calibrate    (the host-speed reference job; see common.h)
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Besides a human-readable
// table, the last stdout line is `SDSBENCH_RESULT {json}`: workload,
// seed, host block, every metric with unit and sample count, the
// failure accounting, the workload's own check failures and its outputs
// (checked against the committed reference by run.py).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using sdsbench::Metric;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"cycles_per_s", "1/s"},    {"cycle_ms_p50", "ms"},
    {"cycle_ms_tail", "ms"},    {"setup_s", "s"},
    {"cpu_ms_per_cycle", "ms"}, {"peak_rss_mb", "MB"},
    {"wire_kb_per_cycle", "kB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_cycle", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.engine_ns_per_event", "ns"},
    {"core.store_fold_ns_per_report", "ns"},
    {"proto.delta_make_ns_per_report", "ns"},
    {"core.compute_ms_per_cycle", "ms"},
    {"core.jobs_resummed_per_cycle", "count"},
    {"policy.algorithm_runs_per_cycle", "count"},
    {"proto.collect_bytes_per_cycle", "B"},
    {"proto.delta_frame_share", "ratio"},
    {"fault.faults_per_cycle", "count"},
    {"sim.degraded_cycle_share", "ratio"},
    {"sim.stale_per_cycle", "count"},
    {"stage.demand_queries_per_cycle", "count"},
    {"sim.residual_ms_per_cycle", "ms"},
    {"fault.budget_overshoot_pct", "%"},
    {"transport.send_us_per_msg", "us"},
    {"transport.msgs_per_cycle", "count"},
    {"transport.bytes_per_cycle", "B"},
    {"runtime.global_handler_us_per_frame", "us"},
    {"runtime.host_handler_us_per_frame", "us"},
    {"transport.loop_cpu_ms_per_cycle", "ms"},
    {"runtime.collect_ms_p50", "ms"},
    {"runtime.aggregate_ms_p50", "ms"},
    {"runtime.compute_ms_p50", "ms"},
    {"runtime.disseminate_ms_p50", "ms"},
    {"runtime.enforce_ms_p50", "ms"},
    {"policy.algorithm_us_per_run", "us"},
    {"bench.trace_overhead_pct", "%"},
};

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:",
               argv0);
  for (const auto& w : sdsbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--calibrate") == 0) {
    return sdsbench::calibrate_main();
  }
  sdsbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage(argv[0]);
  bool known = false;
  for (const auto& w : sdsbench::workload_names()) known |= w == args.workload;
  if (!known) return usage(argv[0]);

  sdsbench::HostInfo host = sdsbench::probe_host();
  sdsbench::RunReport report = args.workload.rfind("live_", 0) == 0
                                   ? sdsbench::run_live_workload(args)
                                   : sdsbench::run_sim_workload(args);
  host.load_end = sdsbench::load_average_1m();
  host.speed = report.host_speed;

  // Every traced result carries the whole per-layer set; a layer the
  // workload does not run reads 0 with 0 samples.
  std::vector<Metric> metrics;
  const auto& defs = args.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                         std::end(kPerLayer))
                                : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                         std::end(kEndToEnd));
  for (const MetricDef& def : defs) {
    const Metric* m = find(report.metrics, def.name);
    if (m == nullptr && !args.trace) {
      report.check_failures.push_back(std::string("no value for ") + def.name);
      continue;
    }
    metrics.push_back(m != nullptr ? *m : Metric{def.name, def.unit, 0, 0});
  }

  std::printf("sdsbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: %s, %u threads, %s, %s, load %.2f -> %.2f, "
              "host speed factor %.3f over %zu calibrations\n",
              host.cpu_model.c_str(), host.nproc, host.compiler.c_str(),
              host.build_type.c_str(), host.load_start, host.load_end,
              host.speed.factor, host.speed.samples);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& f : report.check_failures) std::printf("  CHECK FAILED: %s\n", f.c_str());

  std::vector<std::string> metric_items;
  for (const Metric& m : metrics) {
    metric_items.push_back(sdsbench::Json()
                               .str("metric", m.name)
                               .str("unit", m.unit)
                               .num("value", m.value)
                               .integer("samples", m.samples)
                               .done());
  }
  const auto strings = [](const std::vector<std::string>& v) {
    std::vector<std::string> out;
    for (const auto& s : v) out.push_back(sdsbench::json_string(s));
    return sdsbench::json_array(out);
  };
  const std::string result = sdsbench::Json()
                                 .str("workload", args.workload)
                                 .integer("seed", args.seed)
                                 .num("seconds", args.seconds)
                                 .boolean("trace", args.trace)
                                 .raw("host", sdsbench::host_json(host))
                                 .raw("metrics", sdsbench::json_array(metric_items))
                                 .integer("attempted", report.attempted)
                                 .integer("failed", report.failed)
                                 .raw("check_failures", strings(report.check_failures))
                                 .raw("detail", report.detail_json)
                                 .raw("rep_digests", strings(report.rep_digests))
                                 .raw("outputs", report.outputs_json)
                                 .done();
  std::printf("SDSBENCH_RESULT %s\n", result.c_str());
  return 0;
}
