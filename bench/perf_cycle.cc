// Control-cycle fast-path microbenchmark. Three throughput pillars:
//
//   engine.events_per_sec        — the calendar-wheel DES core, plus an
//   engine.legacy_events_per_sec   A/B against the seed's
//                                  priority_queue<std::function> engine
//                                  (reproduced verbatim below), so the
//                                  speedup ratio is measured, not claimed.
//   codec.encode_msgs_per_sec    — StageMetrics encode into pooled
//   codec.decode_msgs_per_sec      SharedFrame images / decode back.
//   sim.cycles_per_sec           — end-to-end control cycles at N=500.
//
// Every measurement repeats `--reps=N` times (default 3); the report
// gives each metric's median, min and max, and the gates judge the
// median. Writes BENCH_cycle.json (cwd, or $SDSCALE_BENCH_OUT/…) with
// the host block so successive commits can diff baselines. `--quick`
// shrinks the run for the `perf`-labeled CTest smoke.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "proto/messages.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/span_tracer.h"
#include "wire/shared_frame.h"

namespace {

using sds::Nanos;

// The seed's engine, verbatim (minus the UB-adjacent const_cast fixed in
// the rewrite): one global priority_queue of type-erased std::functions.
// Kept here — not in src/ — purely as the A/B baseline.
class LegacyEngine {
 public:
  using EventFn = std::function<void()>;

  struct TimedEvent {
    Nanos at;
    EventFn fn;
  };

  [[nodiscard]] Nanos now() const { return now_; }

  void schedule_at(Nanos at, EventFn fn) {
    if (at < now_) at = now_;
    queue_.push(Event{at, next_seq_++, std::move(fn)});
  }

  void schedule_in(Nanos delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // What fan-out looked like before batching existed: one push per event.
  void schedule_batch(std::vector<TimedEvent>& batch) {
    for (auto& ev : batch) schedule_at(ev.at, std::move(ev.fn));
    batch.clear();
  }

  bool step() {
    if (queue_.empty()) return false;
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.at;
    event.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    Nanos at;
    std::uint64_t seq;
    EventFn fn;
    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Nanos now_{0};
  std::uint64_t next_seq_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The send/arrival pattern of the simulated control plane at the
// paper's scale, two components mixed ~50/50 by event count:
//
//   * Steady timers: tens of thousands of in-flight self-rescheduling
//     timers (a 10,000-stage cluster keeps NIC serialization,
//     propagation, and cycle timers outstanding simultaneously), each
//     carrying ~70 bytes of captured state like sim::Host::send's
//     continuations. The capture overflows std::function's small-buffer
//     storage, so the legacy engine pays a heap allocation per
//     scheduled event on top of walking a deep cache-missing global
//     heap, while the wheel appends a 24-byte key O(1) into a bucket
//     and parks the closure in its allocation-free slab.
//
//   * Collect fan-out waves: every cycle the controller's collect
//     broadcast produces thousands of arrivals clustered in a narrow
//     window — scheduled through schedule_batch, which the legacy
//     engine can only emulate as one heap push per event, while the
//     wheel lands the whole wave in a couple of buckets and sorts each
//     bucket once when the cursor reaches it.
struct NicContext {  // what sim::Host::send captures per message
  std::uint64_t wire_bytes;
  std::uint64_t tx_free;
  std::uint64_t stage_id;
  std::uint64_t cycle_id;
  double latency_scale;
};

template <typename EngineT>
struct NicTimerChain {
  EngineT* engine;
  std::uint64_t* executed;
  std::uint64_t total;
  std::uint64_t stage_id;
  NicContext ctx;

  void operator()() {
    if (*executed >= total) return;
    const std::uint64_t n = ++*executed;
    // Deterministic pseudo-varied delays spanning ~488 wheel buckets.
    const std::uint64_t delay_ns = 500 + (n * 2654435761u) % spread_ns();
    NicTimerChain next = *this;
    next.ctx = NicContext{delay_ns, n, stage_id, n / 100'000, 1.0};
    engine->schedule_in(Nanos{static_cast<std::int64_t>(delay_ns)},
                        std::move(next));
  }

  static std::uint64_t spread_ns() {
    static const std::uint64_t v = [] {
      const char* s = std::getenv("SDSCALE_PERF_SPREAD_NS");
      return s ? std::strtoull(s, nullptr, 10) : 4'000'000ull;
    }();
    return v;
  }
};

// One collect-wave arrival: a compact closure (counter + routing ids)
// that still overflows std::function's ~16-byte inline storage.
struct WaveArrival {
  std::uint64_t* executed;
  std::uint64_t stage_id;
  std::uint64_t wire_bytes;
  void operator()() { ++*executed; }
};

// Drives one collect wave per control period: batch-schedules kFanout
// arrivals spread over a short window, then re-arms for the next cycle.
template <typename EngineT>
struct WaveDriver {
  static constexpr std::uint64_t kFanout = 2'500;
  static constexpr std::int64_t kWindowNs = 40'000;    // arrival jitter
  static constexpr std::int64_t kPeriodNs = 100'000;   // control period

  EngineT* engine;
  std::uint64_t* executed;
  std::uint64_t total;
  std::vector<typename EngineT::TimedEvent>* scratch;  // reused per wave
  std::uint64_t wave;

  void operator()() {
    if (*executed >= total) return;
    ++*executed;
    const Nanos now = engine->now();
    for (std::uint64_t i = 0; i < kFanout; ++i) {
      const std::int64_t jitter =
          static_cast<std::int64_t>(((wave * kFanout + i) * 2654435761u) %
                                    kWindowNs);
      scratch->push_back({now + Nanos{500 + jitter},
                          WaveArrival{executed, i, 64 + i % 256}});
    }
    engine->schedule_batch(*scratch);
    WaveDriver next = *this;
    ++next.wave;
    engine->schedule_in(Nanos{kPeriodNs}, std::move(next));
  }
};

template <typename EngineT>
double engine_events_per_sec(std::uint64_t total_events) {
  EngineT engine;
  std::uint64_t executed = 0;
  // Concurrent in-flight timers, sized like a 10,000-stage cluster with
  // several outstanding timers per stage...
  static const std::uint64_t kChains = [] {
    const char* s = std::getenv("SDSCALE_PERF_CHAINS");
    return s ? std::strtoull(s, nullptr, 10) : 50'000ull;
  }();
  std::vector<typename EngineT::TimedEvent> scratch;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < kChains; ++c) {
    NicTimerChain<EngineT> chain{&engine, &executed, total_events, c,
                                 NicContext{}};
    chain();
  }
  // ...plus one collect wave per 100 us control period (25 arrivals/us,
  // matching the steady timers' event rate at the default spread).
  WaveDriver<EngineT> driver{&engine, &executed, total_events, &scratch, 0};
  driver();
  engine.run();
  return static_cast<double>(executed) / seconds_since(start);
}

sds::proto::StageMetrics sample_metrics() {
  sds::proto::StageMetrics m;
  m.cycle_id = 123456;
  m.stage_id = sds::StageId{4242};
  m.job_id = sds::JobId{7};
  m.data_iops = 1234.5;
  m.meta_iops = 222.2;
  m.data_limit = 987.6;
  m.meta_limit = 111.1;
  return m;
}

double encode_msgs_per_sec(std::uint64_t total) {
  const auto msg = sample_metrics();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    const sds::wire::SharedFrame frame = sds::proto::to_shared_frame(msg);
    if (frame.empty()) return 0;  // keep the loop observable
  }
  return static_cast<double>(total) / seconds_since(start);
}

double decode_msgs_per_sec(std::uint64_t total) {
  const auto msg = sample_metrics();
  const sds::wire::Frame frame = sds::proto::to_frame(msg);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t ok = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    auto decoded = sds::proto::from_frame<sds::proto::StageMetrics>(frame);
    if (decoded.is_ok()) ++ok;
  }
  return static_cast<double>(ok) / seconds_since(start);
}

// The delta codec pair mirrors the full-frame pair: a low-churn update
// (one field moved, no stage id — the wire shape of a steady-state
// collect reply) built and encoded per iteration, and the same frame
// decoded back.
sds::proto::StageMetrics sample_metrics_next() {
  auto next = sample_metrics();
  ++next.cycle_id;
  next.data_iops += 17.25;  // one changed field
  return next;
}

double delta_encode_msgs_per_sec(std::uint64_t total) {
  const auto prev = sample_metrics();
  const auto curr = sample_metrics_next();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto delta =
        sds::proto::StageMetricsDelta::make(prev, curr, /*include_stage_id=*/false);
    const sds::wire::SharedFrame frame = sds::proto::to_shared_frame(delta);
    if (frame.empty()) return 0;
  }
  return static_cast<double>(total) / seconds_since(start);
}

double delta_decode_msgs_per_sec(std::uint64_t total) {
  const auto prev = sample_metrics();
  const auto curr = sample_metrics_next();
  const auto delta =
      sds::proto::StageMetricsDelta::make(prev, curr, /*include_stage_id=*/false);
  const sds::wire::Frame frame = sds::proto::to_frame(delta);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t ok = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    auto decoded = sds::proto::from_frame<sds::proto::StageMetricsDelta>(frame);
    if (decoded.is_ok() && decoded->apply(prev) == curr) ++ok;
  }
  return static_cast<double>(ok) / seconds_since(start);
}

double sim_cycles_per_sec(Nanos sim_duration) {
  sds::sim::ExperimentConfig config;
  config.num_stages = 500;
  config.duration = sim_duration;
  const auto start = std::chrono::steady_clock::now();
  auto result = sds::sim::run_experiment(config);
  if (!result.is_ok()) return 0;
  return static_cast<double>(result->cycles) / seconds_since(start);
}

// One hierarchical run (500 stages under 4 aggregators), optionally
// traced. Alongside throughput, a fingerprint over the result's bit
// patterns lets the tracing A/B assert that a traced run is *identical*
// to an untraced one — the overhead figure only counts if tracing never
// perturbs the simulation.
struct HierRun {
  double cycles_per_sec = 0;
  std::uint64_t fingerprint = 0;
  bool ok = false;
};

HierRun run_hier_sim(Nanos sim_duration,
                     sds::telemetry::SpanTracer* tracer = nullptr,
                     sds::telemetry::FlightRecorder* flight = nullptr) {
  sds::sim::ExperimentConfig config;
  config.num_stages = 500;
  config.num_aggregators = 4;
  config.duration = sim_duration;
  config.tracer = tracer;
  config.flight = flight;
  const auto start = std::chrono::steady_clock::now();
  auto result = sds::sim::run_experiment(config);
  if (!result.is_ok()) return {};
  HierRun out;
  out.ok = true;
  out.cycles_per_sec = static_cast<double>(result->cycles) /
                       seconds_since(start);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over result bits
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(result->cycles);
  mix(result->events_executed);
  mix(static_cast<std::uint64_t>(result->elapsed.count()));
  mix(std::bit_cast<std::uint64_t>(result->stats.total().mean()));
  mix(std::bit_cast<std::uint64_t>(result->stats.collect().mean()));
  mix(std::bit_cast<std::uint64_t>(result->stats.compute().mean()));
  mix(std::bit_cast<std::uint64_t>(result->stats.enforce().mean()));
  mix(std::bit_cast<std::uint64_t>(result->final_data_limit_sum));
  mix(std::bit_cast<std::uint64_t>(result->mean_data_utilization));
  out.fingerprint = h;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using sds::bench::Samples;
  const bool quick = sds::bench::quick_flag(argc, argv);
  const int reps = sds::bench::reps_flag(argc, argv);
  const std::uint64_t engine_events = quick ? 1'000'000 : 4'000'000;
  const std::uint64_t codec_msgs = quick ? 100'000 : 1'000'000;
  const Nanos sim_duration = quick ? sds::seconds(2) : sds::seconds(10);

  std::printf("perf_cycle (%s, %d reps: median [min .. max])\n",
              quick ? "quick" : "full", reps);

  Samples wheel;
  Samples legacy;
  Samples speedup;
  Samples enc;
  Samples dec;
  Samples denc;
  Samples ddec;
  Samples cycles;
  Samples untraced_cps;
  Samples traced_cps;
  Samples overhead_pct;
  for (int rep = 0; rep < reps; ++rep) {
    const double w = engine_events_per_sec<sds::sim::Engine>(engine_events);
    const double l = engine_events_per_sec<LegacyEngine>(engine_events);
    wheel.add(w);
    legacy.add(l);
    speedup.add(l > 0 ? w / l : 0);

    enc.add(encode_msgs_per_sec(codec_msgs));
    dec.add(decode_msgs_per_sec(codec_msgs));
    denc.add(delta_encode_msgs_per_sec(codec_msgs));
    ddec.add(delta_decode_msgs_per_sec(codec_msgs));

    cycles.add(sim_cycles_per_sec(sim_duration));

    // Tracing A/B: the same hierarchical experiment untraced and with the
    // span tracer AND the flight recorder armed, interleaved within each
    // repetition (which arm goes first alternates, so warm-up favours
    // neither). The simulated results must be bit-identical (tracing
    // only reads the virtual clock); the throughput cost is judged below.
    sds::telemetry::SpanTracer tracer;
    sds::telemetry::FlightRecorder flight;
    HierRun untraced;
    HierRun traced;
    if (rep % 2 == 0) {
      untraced = run_hier_sim(sim_duration);
      traced = run_hier_sim(sim_duration, &tracer, &flight);
    } else {
      traced = run_hier_sim(sim_duration, &tracer, &flight);
      untraced = run_hier_sim(sim_duration);
    }
    if (!untraced.ok || !traced.ok) {
      std::printf("FAIL: hierarchical sim run failed\n");
      return 1;
    }
    if (traced.fingerprint != untraced.fingerprint) {
      std::printf("FAIL: tracing changes simulated results "
                  "(fingerprint %016llx vs %016llx)\n",
                  static_cast<unsigned long long>(traced.fingerprint),
                  static_cast<unsigned long long>(untraced.fingerprint));
      return 1;
    }
    untraced_cps.add(untraced.cycles_per_sec);
    traced_cps.add(traced.cycles_per_sec);
    overhead_pct.add(
        untraced.cycles_per_sec > 0
            ? (1.0 - traced.cycles_per_sec / untraced.cycles_per_sec) * 100.0
            : 0);
  }

  sds::bench::print_samples("engine.events_per_sec", wheel, 0);
  sds::bench::print_samples("engine.legacy_events_per_sec", legacy, 0);
  sds::bench::print_samples("engine.speedup_vs_legacy", speedup, 2, "x");
  sds::bench::print_samples("codec.encode_msgs_per_sec", enc, 0);
  sds::bench::print_samples("codec.decode_msgs_per_sec", dec, 0);
  sds::bench::print_samples("codec.delta_encode_msgs_per_sec", denc, 0);
  sds::bench::print_samples("codec.delta_decode_msgs_per_sec", ddec, 0);
  sds::bench::print_samples("sim.cycles_per_sec", cycles, 2);
  sds::bench::print_samples("sim.tracing.untraced_cycles_per_sec",
                            untraced_cps, 2);
  sds::bench::print_samples("sim.tracing.cycles_per_sec", traced_cps, 2);
  sds::bench::print_samples("sim.tracing.overhead_pct", overhead_pct, 2);

  using sds::bench::JsonObject;
  sds::bench::write_bench_json(
      "BENCH_cycle.json", "perf_cycle", quick, reps,
      JsonObject{}
          .object("engine", JsonObject{}
                                .samples("events_per_sec", wheel, 0)
                                .samples("legacy_events_per_sec", legacy, 0)
                                .samples("speedup_vs_legacy", speedup))
          .object("codec", JsonObject{}
                               .samples("encode_msgs_per_sec", enc, 0)
                               .samples("decode_msgs_per_sec", dec, 0)
                               .samples("delta_encode_msgs_per_sec", denc, 0)
                               .samples("delta_decode_msgs_per_sec", ddec, 0))
          .object("sim",
                  JsonObject{}
                      .integer("num_stages", 500)
                      .samples("cycles_per_sec", cycles)
                      .object("tracing",
                              JsonObject{}
                                  .samples("untraced_cycles_per_sec",
                                           untraced_cps)
                                  .samples("cycles_per_sec", traced_cps)
                                  .samples("overhead_pct", overhead_pct))));

  // Regression guard: the wheel engine must clearly beat the legacy
  // global-heap engine. On the 1-vCPU CI container the measured ratio
  // is ~2x (1.6-2.3x run to run): the per-event floor both engines
  // share — closure construction plus cold capture reads at invoke —
  // bounds the achievable ratio well below the engine-op speedup.
  // Failing below 1.4x still trips on genuine regressions (e.g.
  // reintroducing a per-event allocation or a global heap).
  if (!quick && speedup.median() < 1.4) {
    std::printf("FAIL: median speedup %.2fx below the 1.4x regression bar\n",
                speedup.median());
    return 1;
  }
  // Always-on tracing must stay cheap: span emission is a handful of
  // hash derivations plus two ring writes per cycle. The median over
  // interleaved pairs keeps one noisy sample from deciding either way.
  if (!quick && overhead_pct.median() > 5.0) {
    std::printf("FAIL: median tracing overhead %.2f%% above the 5%% bar\n",
                overhead_pct.median());
    return 1;
  }
  return 0;
}
