// Golden fingerprints: whole experiments hashed bit-for-bit and pinned.
//
// The fingerprint covers every externally visible field of an
// ExperimentResult — each phase histogram's exact bit pattern, per-stage
// limit vectors, controller usage, the event count, utilization, the
// collect wire accounting and the resilience counters — so a doubled
// field drifting by one ULP, one extra or missing event, or a reordered
// utilization sample changes the pinned hash. The pins are the only
// committed reference output for the deep, coordinated and
// local-decision topologies; a deliberate model change must re-pin them
// (and say so), an accidental one fails here.
//
// To re-pin, run the suite and copy the `actual` hashes from the
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

/// Every externally visible field of an ExperimentResult, bit-exact.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  append_hist(out, r.stats.collect());
  append_hist(out, r.stats.compute());
  append_hist(out, r.stats.enforce());
  append_hist(out, r.stats.total());
  out << r.cycles << ';' << r.elapsed.count() << ';';
  append_usage(out, r.global);
  append_usage(out, r.aggregator);
  append_usage(out, r.super_aggregator);
  out << r.events_executed << ';' << bits(r.final_data_limit_sum) << ','
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
  kDeltaCollect,
  kFaults,
  kPeriodicSampled,
  kInstantSampled,
};

struct Case {
  const char* name;
  std::size_t stages;
  std::size_t aggregators;
  std::size_t super_aggregators;
  std::size_t peers;
  Variant variant;
  std::uint64_t pin_seed42;
  std::uint64_t pin_seed7;
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
     0x49dc7886a05f4e63, 0xe278e17a08033bd1},
    {"hier", 250, 7, 0, 0, Variant::kPlain,
     0x5ed6f2f587d5523b, 0x813ebf9850940a32},
    {"deep", 200, 8, 2, 0, Variant::kPlain,
     0x394e1ede82542d53, 0xbd241a34e414bc2e},
    {"coordinated", 120, 0, 0, 3, Variant::kPlain,
     0x62fdef7876105307, 0x50ce43d9e7c0df1d},
    {"local-decisions", 250, 7, 0, 0, Variant::kLocalDecisions,
     0x69350c610ff7b10a, 0xb9d070d17887d734},
    {"flat-delta", 120, 0, 0, 0, Variant::kDeltaCollect,
     0x7eeac069536940fc, 0x9758b6333b67692e},
    {"hier-delta", 250, 7, 0, 0, Variant::kDeltaCollect,
     0x8e11d5f13abc85f5, 0x2a95be80213e8a6a},
    {"flat-faults", 60, 0, 0, 0, Variant::kFaults,
     0xe789ee636e057289, 0xa74ff86432d315fc},
    {"hier-faults", 64, 4, 0, 0, Variant::kFaults,
     0xd9d0536bf49ce11f, 0x7bcdffafb20ebba1},
    {"flat-periodic", 120, 0, 0, 0, Variant::kPeriodicSampled,
     0xb083bc78ee5b5f5b, 0x8f68100c9c2014ae},
    {"coordinated-periodic", 120, 0, 0, 3, Variant::kPeriodicSampled,
     0x3a986d1ae6d46645, 0x313975741d5449b1},
    {"flat-instant", 120, 0, 0, 0, Variant::kInstantSampled,
     0x054940a4c41b1c1b, 0x71c675cc94900cf7},
    {"coordinated-instant", 120, 0, 0, 3, Variant::kInstantSampled,
     0x651e573a26156cf1, 0x889bebee0e6c4a4d},
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
      const std::uint64_t want = seed == 42 ? c.pin_seed42 : c.pin_seed7;
      EXPECT_EQ(hex(fnv1a(fingerprint(*result))), hex(want))
          << c.name << " seed=" << seed;
    }
  }
}

Result<ExperimentResult> run_case(std::string_view name, std::uint64_t seed) {
  return run_experiment(make_config(case_named(name), seed));
}

TEST(ExperimentFingerprintTest, VariantsExerciseTheirPaths) {
  // Guards against a pin that silently stopped covering its mode.
  const auto delta = run_case("hier-delta", 42);
  ASSERT_TRUE(delta.is_ok());
  EXPECT_GT(delta->collect_frames_delta, 0u);
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
