// Shared pieces of the sdsbench benchmark: command-line arguments, the
// seeded demand model, the tail-percentile helper, process/thread
// resource probes, the host block and a minimal JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "stage/virtual_stage.h"

namespace sdsbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One reported number: name, unit, value and how many samples it
/// summarizes (cycles, repetitions, frames...).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;
};

// -- Host speed -----------------------------------------------------------

/// Seconds a fixed reference job takes on the CPU the run is pinned to,
/// by component: dependent loads through a scrambled cycle of 8 MiB
/// (cache and memory latency) and building and probing a node-based
/// hash table of 100 Ki keys (allocation and scattered accesses, as in
/// the program's own containers). The job runs in a child process (this
/// binary, `--calibrate`), so its memory and CPU time stay out of the
/// workload's figures; a negative total means it could not run.
struct Calibration {
  double chase_s = 0;
  double hash_table_s = 0;
  [[nodiscard]] double total_s() const { return chase_s + hash_table_s; }
};
[[nodiscard]] Calibration calibrate();
/// Calibration total (s) at the reference speed the timing metrics are
/// stated at: about what a quiet 4-vCPU Xeon VM takes.
inline constexpr double kReferenceCalibrationS = 0.06;
/// A run's host speed: the component-wise median of the calibrations
/// taken through the run, and the factor that states the run's times at
/// the reference speed (reference seconds per measured second:
/// kReferenceCalibrationS over the median total). factor is 0 when a
/// calibration failed.
struct HostSpeed {
  Calibration median;
  std::size_t samples = 0;
  double factor = 0;
};
[[nodiscard]] HostSpeed host_speed(const std::vector<Calibration>& calibrations);
/// The same factor for a stretch measured between two calibrations, from
/// their mean total; 0 when either failed.
[[nodiscard]] double speed_factor(const Calibration& before,
                                  const Calibration& after);
/// The child's side of calibrate(): runs the job and prints its two
/// times on stdout. Returns the exit code.
int calibrate_main();

/// What a workload run hands back to main(): its metrics, the failure
/// accounting and the checked outputs.
struct RunReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Invariant violations found by the workload itself (empty = clean).
  std::vector<std::string> check_failures;
  /// Checked outputs of the first repetition as a JSON object ("{}" when
  /// the workload has no reference outputs).
  std::string outputs_json = "{}";
  /// Exact digest of every repetition's outputs (first = warm-up).
  std::vector<std::string> rep_digests;
  /// Free-form extra detail (JSON object) printed with the result.
  std::string detail_json = "{}";
  /// The host speed the timing metrics were scaled by.
  HostSpeed host_speed;
};

// -- Demand model ---------------------------------------------------------

/// Seeded stage demand: a pure function of (seed, stage, dimension,
/// time). Each stage draws a base rate (data in [500, 1500) ops/s, meta
/// in [50, 150)); with churn enabled its job's level in [0.5, 1.5)
/// is redrawn once every `churn_period` epochs, at an epoch offset
/// drawn per job, so about 1/churn_period of all jobs change demand per
/// epoch and the rest hold constant.
struct DemandModel {
  std::uint64_t seed = 1;
  std::size_t stages_per_job = 50;
  /// 0 = constant demand.
  std::uint32_t churn_period = 0;
  sds::Nanos epoch = sds::millis(1);

  [[nodiscard]] double value(std::uint32_t stage, sds::stage::Dimension dim,
                             sds::Nanos t) const;
  /// Job level at time t (1.0 without churn).
  [[nodiscard]] double job_level(std::uint32_t job, sds::Nanos t) const;
  /// Level generation of `job` at epoch `e` (changes every churn_period).
  [[nodiscard]] std::uint64_t generation(std::uint32_t job,
                                         std::uint64_t e) const;
};

[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

// -- Statistics -----------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample (p in (0, 100]).
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// Highest percentile the end-to-end tail metric reports. p90, not p99:
/// on a shared host, the slowest few percent of live cycles are set by
/// the host's hiccups and move from run to run.
inline constexpr int kTailCap = 90;

/// Highest whole percentile, capped at `cap`, that leaves at least
/// `beyond` samples above its nearest rank in a sample of `n`; 0 when no
/// percentile qualifies.
[[nodiscard]] int tail_percentile(std::size_t n, int cap = 99,
                                  std::size_t beyond = 10);

/// The tail metric's percentile for `n` samples: tail_percentile(n,
/// kTailCap), or the median when fewer samples leave no higher one.
[[nodiscard]] int tail_or_median(std::size_t n);

[[nodiscard]] double median(std::vector<double> values);

// -- Resource probes ------------------------------------------------------

[[nodiscard]] double wall_s();  // steady clock, seconds
[[nodiscard]] std::int64_t wall_ns();
/// Process user+sys CPU seconds.
[[nodiscard]] double process_cpu_s();
/// Calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID), ns.
[[nodiscard]] std::int64_t thread_cpu_ns();
[[nodiscard]] double peak_rss_mb();


/// Host block: CPU model, hardware threads, compiler, build type, load
/// average at start and end of the run, and the run's host speed. The
/// load average inside a virtual machine does not show a busy host; the
/// host speed does, so drift between runs can be told apart from a
/// change in the program.
struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  double load_start = 0;
  double load_end = 0;
  HostSpeed speed;
};
/// Fills everything but load_end and speed.
[[nodiscard]] HostInfo probe_host();
[[nodiscard]] double load_average_1m();

// -- JSON ----------------------------------------------------------------

/// Compact JSON object builder (numbers print with 17 significant digits
/// so doubles round-trip exactly).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  Json& nums(const std::string& key, const std::vector<double>& v);
  [[nodiscard]] std::string done() const { return body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_ = "{";
};

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);
/// `[a,b,...]` from already-encoded JSON values.
[[nodiscard]] std::string json_array(const std::vector<std::string>& items);
[[nodiscard]] std::string host_json(const HostInfo& host);

/// FNV-1a over 64-bit words, for exact output digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace sdsbench
