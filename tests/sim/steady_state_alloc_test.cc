// Steady-state heap traffic of the simulated control cycle.
//
// Every per-stage event of a cycle — the collect fan-out and reply, the
// rule send, the apply and its ack — must run without touching the
// heap: its closure rides inline in an engine slab cell. What may still
// allocate each cycle is per-aggregator and per-job work (reports, rule
// batches, the controller's compute). So four extra cycles may add
// allocations in proportion to the aggregators and jobs, never to the
// stages. Allocations are counted through a replaced global operator
// new.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "sim/experiment.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sds::sim {
namespace {

constexpr std::uint64_t kWarmCycles = 8;
constexpr std::uint64_t kExtraCycles = 4;

/// Heap allocations made while running `config` for exactly `cycles`.
std::uint64_t allocations_for(ExperimentConfig config, std::uint64_t cycles) {
  config.max_cycles = cycles;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const auto result = run_experiment(config);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(result.is_ok()) << result.status().message();
  if (result.is_ok()) {
    EXPECT_EQ(result.value().cycles, cycles);
  }
  return after - before;
}

/// Allocations per cycle that kExtraCycles more cycles add to a warm run.
double extra_per_cycle(const ExperimentConfig& config) {
  const std::uint64_t warm = allocations_for(config, kWarmCycles);
  const std::uint64_t longer = allocations_for(config, kWarmCycles + kExtraCycles);
  EXPECT_GE(longer, warm);
  return static_cast<double>(longer - warm) / static_cast<double>(kExtraCycles);
}

/// The fault suite's plan: every injection class at once.
fault::FaultPlan busy_plan() {
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.quorum = 0.85;
  plan.phase_timeout = millis(2);
  plan.drop_probability = 0.05;
  plan.duplicate_probability = 0.03;
  plan.delay_probability = 0.05;
  plan.delay = micros(137);
  plan.crash_stage(2, millis(5), millis(15));
  plan.slow(0, 5, millis(0), millis(40), 3.0);
  plan.partition(8, 11, millis(10), millis(30));
  plan.stage_mtbf_s = 0.2;
  plan.stage_downtime_s = 0.02;
  return plan;
}

// Per-cycle allowance. The controller's own compute allocates per job
// (the rule splitter's job table, the demand rows) and per aggregator
// (reports, rule batches); the cycle's bookkeeping and the engine's
// bucket vectors add a bounded amount on top. Per-stage work gets
// nothing: with one allocation per stage per cycle these runs would
// need 10,000 and 2,500.
constexpr double kPerCycle = 128;
constexpr double kPerAggregator = 48;
constexpr double kPerJob = 4;

double allowance(std::size_t aggregators, std::size_t jobs) {
  return kPerCycle + kPerAggregator * static_cast<double>(aggregators) +
         kPerJob * static_cast<double>(jobs);
}

TEST(SteadyStateAllocTest, HierDeltaCollectAllocatesPerAggregatorNotPerStage) {
  ExperimentConfig config;
  config.num_stages = 10'000;
  config.num_aggregators = 10;
  config.stages_per_job = 50;
  config.delta_collect = true;
  config.delta_refresh = 8;
  config.duration = seconds(30);
  const double per_cycle = extra_per_cycle(config);
  EXPECT_LE(per_cycle, allowance(10, 200))
      << "per-stage work allocates: " << per_cycle << " allocations per cycle";
}

TEST(SteadyStateAllocTest, FlatFaultedRunAllocatesPerCycleNotPerStage) {
  const fault::FaultPlan plan = busy_plan();
  ExperimentConfig config;
  config.num_stages = 2'500;
  config.stages_per_job = 50;
  config.fault_plan = &plan;
  config.duration = seconds(30);
  const double per_cycle = extra_per_cycle(config);
  EXPECT_LE(per_cycle, allowance(0, 50))
      << "per-stage work allocates: " << per_cycle << " allocations per cycle";
}

}  // namespace
}  // namespace sds::sim
