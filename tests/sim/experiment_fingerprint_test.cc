// Golden fingerprints: whole experiments hashed bit-for-bit and pinned.
//
// Each case pins two values. The *outputs* hash covers every externally
// visible field of an ExperimentResult except the engine's event count —
// each phase histogram's exact bit pattern, per-stage limit vectors,
// controller usage, utilization, the collect wire accounting and the
// resilience counters — so a doubled field drifting by one ULP or a
// reordered utilization sample changes it. The *events* pin is the exact
// `events_executed` count. Keeping them apart says what "the same
// program" means when the simulator's event structure changes on
// purpose (say, one engine hop less per message): the outputs hashes
// stay put and only the event counts are re-pinned, by an amount the
// change can account for. The pins are the only committed reference
// output for the deep, coordinated and local-decision topologies; a
// deliberate model change must re-pin them (and say so), an accidental
// one fails here.
//
// To re-pin, run the suite and copy the `actual` values from the
// failure messages.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "sim/experiment.h"

namespace sds::sim {
namespace {

/// Hex image of a double's exact bit pattern.
std::string bits(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

void append_hist(std::ostringstream& out, const Histogram& h) {
  out << h.count() << ',' << h.min() << ',' << h.max() << ',' << bits(h.mean())
      << ',' << bits(h.stddev()) << ';';
}

void append_usage(std::ostringstream& out, const ControllerUsage& u) {
  out << bits(u.cpu_percent) << ',' << bits(u.memory_gb) << ','
      << bits(u.transmitted_mbps) << ',' << bits(u.received_mbps) << ';';
}

/// Every externally visible field of an ExperimentResult except
/// `events_executed` (pinned on its own), bit-exact.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  append_hist(out, r.stats.collect());
  append_hist(out, r.stats.aggregate());
  append_hist(out, r.stats.compute());
  append_hist(out, r.stats.disseminate());
  append_hist(out, r.stats.enforce());
  append_hist(out, r.stats.total());
  out << r.cycles << ';' << r.elapsed.count() << ';';
  append_usage(out, r.global);
  append_usage(out, r.aggregator);
  append_usage(out, r.super_aggregator);
  out << bits(r.final_data_limit_sum) << ','
      << bits(r.final_meta_limit_sum) << ';';
  for (const double v : r.final_data_limits) out << bits(v) << ',';
  out << ';';
  for (const double v : r.final_meta_limits) out << bits(v) << ',';
  out << ';' << bits(r.mean_data_utilization) << ','
      << bits(r.mean_meta_utilization) << ';' << r.collect_wire_bytes << ','
      << r.collect_wire_bytes_full << ',' << r.collect_frames_full << ','
      << r.collect_frames_delta << ';' << r.degraded_cycles << ','
      << r.stale_stage_reports << ',' << r.faults_injected << ','
      << bits(r.mean_recovery_ms);
  return std::move(out).str();
}

/// 64-bit FNV-1a of the fingerprint text.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The plan of the fault suite: every injection class at once.
const fault::FaultPlan& busy_plan() {
  static const fault::FaultPlan plan = [] {
    fault::FaultPlan p;
    p.seed = 3;
    p.quorum = 0.85;
    p.phase_timeout = millis(2);
    p.drop_probability = 0.05;
    p.duplicate_probability = 0.03;
    p.delay_probability = 0.05;
    p.delay = micros(137);
    p.crash_stage(2, millis(5), millis(15));
    p.slow(0, 5, millis(0), millis(40), 3.0);
    p.partition(8, 11, millis(10), millis(30));
    p.stage_mtbf_s = 0.2;
    p.stage_downtime_s = 0.02;
    return p;
  }();
  return plan;
}

enum class Variant {
  kPlain,
  kLocalDecisions,
  kPassthrough,
  kSerialFanout,
  kDeltaCollect,
  kFaults,
  kPeriodicSampled,
  kInstantSampled,
};

/// One seed's pins: the outputs hash and the exact engine event count.
struct Pin {
  std::uint64_t outputs;
  std::uint64_t events;
};

struct Case {
  const char* name;
  std::size_t stages;
  std::size_t aggregators;
  std::size_t super_aggregators;
  std::size_t peers;
  Variant variant;
  Pin seed42;
  Pin seed7;
};

/// Per-stage 4 ms square-wave demand, phase-shifted by 1 ms per stage
/// class (and by the seed), so utilization samples depend on their
/// exact instant.
std::function<stage::DemandFn(StageId, stage::Dimension)> square_wave_demand(
    std::uint64_t seed) {
  return [seed](StageId id, stage::Dimension dim) {
    const double base = dim == stage::Dimension::kData ? 1000.0 : 100.0;
    const auto phase = static_cast<std::int64_t>((id.value() + seed) % 4);
    return stage::DemandFn([base, phase](Nanos t) {
      return (t.count() / 1'000'000 + phase) % 4 < 2 ? base * 1.5
                                                     : base * 0.5;
    });
  };
}

/// Every time cost zero: messages, CPU work and phase waits take no
/// virtual time.
FronteraProfile instant_profile() {
  FronteraProfile p;
  p.wire_latency = Nanos{0};
  p.nic_bytes_per_ns = 1e12;
  p.cpu_send_fixed = Nanos{0};
  p.cpu_send_per_byte_ns = 0;
  p.cpu_recv_fixed = Nanos{0};
  p.cpu_recv_per_byte_ns = 0;
  p.cpu_merge_per_stage = Nanos{0};
  p.cpu_agg_merge_per_stage = Nanos{0};
  p.cpu_psfa_per_job = Nanos{0};
  p.cpu_relay_per_stage = Nanos{0};
  p.cpu_split_per_stage = Nanos{0};
  p.cpu_route_per_rule = Nanos{0};
  p.stage_service = Nanos{0};
  p.phase_sync_overhead = Nanos{0};
  return p;
}

ExperimentConfig make_config(const Case& c, std::uint64_t seed) {
  ExperimentConfig config;
  config.num_stages = c.stages;
  config.num_aggregators = c.aggregators;
  config.num_super_aggregators = c.super_aggregators;
  config.coordinated_peers = c.peers;
  config.stages_per_job = 10;
  config.duration = millis(200);
  config.max_cycles = 12;
  config.seed = seed;
  switch (c.variant) {
    case Variant::kPlain:
      break;
    case Variant::kLocalDecisions:
      config.local_decisions = true;
      break;
    case Variant::kPassthrough:
      config.preaggregate = false;
      break;
    case Variant::kSerialFanout:
      config.parallel_fanout = false;
      break;
    case Variant::kDeltaCollect:
      config.delta_collect = true;
      config.delta_refresh = 8;  // several refresh waves within 12 cycles
      break;
    case Variant::kFaults:
      config.fault_plan = &busy_plan();
      break;
    case Variant::kPeriodicSampled:
      // Idle gaps between cycles, with utilization samples landing both
      // inside cycles and in the gaps, over a time-varying demand: pins
      // the event loop's ordering rules (a sample runs at its own
      // instant, before events at or after it; the coordinated idle
      // join runs before a pending sample).
      config.cycle_period = millis(7);
      config.utilization_sample_interval = millis(3);
      config.demand_factory = square_wave_demand(seed);
      break;
    case Variant::kInstantSampled:
      // A zero-cost profile: every cycle runs to completion at its start
      // instant, and every cycle start coincides with a sample. Pins
      // that a sample sees the limits from before same-instant events.
      config.cycle_period = millis(3);
      config.utilization_sample_interval = millis(3);
      config.demand_factory = square_wave_demand(seed);
      config.profile = instant_profile();
      break;
  }
  return config;
}

constexpr Case kCases[] = {
    {"flat", 120, 0, 0, 0, Variant::kPlain,
     {0x2159d48643bb9388, 8688}, {0xf354d8e3f66705e2, 8688}},
    {"hier", 250, 7, 0, 0, Variant::kPlain,
     {0x364b6fe29047498f, 18804}, {0xd4e8a4682431df16, 18804}},
    {"deep", 200, 8, 2, 0, Variant::kPlain,
     {0x8bf66f6328bdf8eb, 15528}, {0xa6b98e353e7eaf36, 15528}},
    // Supers of 2, 2 and 3 aggregators: uneven child positions.
    {"deep-uneven", 250, 7, 3, 0, Variant::kPlain,
     {0xe10bf973a3c0df49, 19128}, {0x75107f9ccb82df7c, 19128}},
    {"coordinated", 120, 0, 0, 3, Variant::kPlain,
     {0xc5b694b77d62ab1a, 8892}, {0x6d3c4f865abce51c, 8892}},
    {"local-decisions", 250, 7, 0, 0, Variant::kLocalDecisions,
     {0x57cdfdeed09665a4, 18888}, {0x6a47a74c341ae3ae, 18888}},
    {"hier-passthrough", 250, 7, 0, 0, Variant::kPassthrough,
     {0x02a64905e7e7d913, 18804}, {0x1ef685a783e8d50f, 18804}},
    {"hier-serial", 250, 7, 0, 0, Variant::kSerialFanout,
     {0x4e7cac45d3473884, 18804}, {0x9af4081bbee4e088, 18804}},
    {"flat-delta", 120, 0, 0, 0, Variant::kDeltaCollect,
     {0x1ece89d934686ca3, 8688}, {0xbebf81e7436ef5d9, 8688}},
    {"hier-delta", 250, 7, 0, 0, Variant::kDeltaCollect,
     {0x222dece93324229b, 18804}, {0xf86f79aa5cfd6824, 18804}},
    {"deep-delta", 200, 8, 2, 0, Variant::kDeltaCollect,
     {0x3234e179b9f943b2, 15528}, {0x7d57cb45c89852c1, 15528}},
    {"flat-faults", 60, 0, 0, 0, Variant::kFaults,
     {0x4b557c7a47bcb90e, 3929}, {0x853bac7ca2456bbb, 3929}},
    {"hier-faults", 64, 4, 0, 0, Variant::kFaults,
     {0x76826bc6791e3d14, 2999}, {0x3d0ce552b407744e, 2999}},
    {"flat-periodic", 120, 0, 0, 0, Variant::kPeriodicSampled,
     {0x75943f6dd6c7cb86, 8699}, {0x2253f7542d2042a7, 8699}},
    {"coordinated-periodic", 120, 0, 0, 3, Variant::kPeriodicSampled,
     {0xf905361666ae51e4, 8892}, {0x31f69055ef34d070, 8892}},
    {"flat-instant", 120, 0, 0, 0, Variant::kInstantSampled,
     {0x62b7ef718b1f853d, 8699}, {0xa7f9cb14172cfe41, 8699}},
    {"coordinated-instant", 120, 0, 0, 3, Variant::kInstantSampled,
     {0xad476569eebf7be2, 8892}, {0xb54e385365d0ef56, 8892}},
};

const Case& case_named(std::string_view name) {
  for (const Case& c : kCases) {
    if (name == c.name) return c;
  }
  ADD_FAILURE() << "no case " << name;
  return kCases[0];
}

TEST(ExperimentFingerprintTest, MatchesGoldenPins) {
  for (const Case& c : kCases) {
    for (const std::uint64_t seed : {42ULL, 7ULL}) {
      const auto result = run_experiment(make_config(c, seed));
      ASSERT_TRUE(result.is_ok()) << c.name << ": " << result.status();
      const Pin& want = seed == 42 ? c.seed42 : c.seed7;
      EXPECT_EQ(hex(fnv1a(fingerprint(*result))), hex(want.outputs))
          << c.name << " seed=" << seed << " (outputs)";
      EXPECT_EQ(result->events_executed, want.events)
          << c.name << " seed=" << seed << " (events)";
    }
  }
}

Result<ExperimentResult> run_case(std::string_view name, std::uint64_t seed) {
  return run_experiment(make_config(case_named(name), seed));
}

TEST(ExperimentFingerprintTest, VariantsExerciseTheirPaths) {
  // Guards against a pin that silently stopped covering its mode.
  for (const char* name : {"hier-delta", "deep-delta"}) {
    const auto delta = run_case(name, 42);
    ASSERT_TRUE(delta.is_ok()) << name;
    EXPECT_GT(delta->collect_frames_delta, 0u) << name;
  }
  const auto faults = run_case("hier-faults", 42);
  ASSERT_TRUE(faults.is_ok());
  EXPECT_GT(faults->faults_injected, 0u);
  for (const char* name : {"coordinated-periodic", "coordinated-instant"}) {
    const auto sampled = run_case(name, 42);
    ASSERT_TRUE(sampled.is_ok()) << name;
    EXPECT_EQ(sampled->cycles, 12u) << name;
    EXPECT_GT(sampled->mean_data_utilization, 0.0) << name;
  }
}

TEST(ExperimentFingerprintTest, RepeatedRunsAreBitIdentical) {
  const auto a = run_case("coordinated", 7);
  const auto b = run_case("coordinated", 7);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

}  // namespace
}  // namespace sds::sim
