#include "common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>
#include <unordered_map>

extern char** environ;

namespace sdsbench {

// -- Demand model ---------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

namespace {

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Stream tags keep the per-purpose hashes independent.
constexpr std::uint64_t kBaseData = 0xD47Au;
constexpr std::uint64_t kBaseMeta = 0x3E7Au;
constexpr std::uint64_t kOffset = 0x0FF5u;
constexpr std::uint64_t kLevel = 0x1E7Eu;

std::uint64_t key(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                  std::uint64_t b = 0) {
  return mix64(mix64(mix64(seed ^ (tag << 48)) ^ a) ^ b);
}

}  // namespace

std::uint64_t DemandModel::generation(std::uint32_t job,
                                      std::uint64_t e) const {
  const std::uint64_t offset = key(seed, kOffset, job) % churn_period;
  return (e + offset) / churn_period;
}

double DemandModel::job_level(std::uint32_t job, sds::Nanos t) const {
  if (churn_period == 0) return 1.0;
  const auto e = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, t.count() / std::max<std::int64_t>(1, epoch.count())));
  return 0.5 + unit(key(seed, kLevel, job, generation(job, e)));
}

double DemandModel::value(std::uint32_t stage, sds::stage::Dimension dim,
                          sds::Nanos t) const {
  const bool data = dim == sds::stage::Dimension::kData;
  const double base =
      data ? 500.0 + 1000.0 * unit(key(seed, kBaseData, stage))
           : 50.0 + 100.0 * unit(key(seed, kBaseMeta, stage));
  const auto job =
      static_cast<std::uint32_t>(stage / std::max<std::size_t>(1, stages_per_job));
  return base * job_level(job, t);
}

// -- Statistics -----------------------------------------------------------

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

int tail_percentile(std::size_t n, int cap, std::size_t beyond) {
  for (int p = cap; p > 0; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && rank <= n && n - rank >= beyond) return p;
  }
  return 0;
}

int tail_or_median(std::size_t n) {
  return std::max(50, tail_percentile(n, kTailCap));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                : 0.5 * (values[m - 1] + values[m]);
}

// -- Resource probes ------------------------------------------------------

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double load_average_1m() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

namespace {

// A full-period cycle over n = 2^k indices: i -> (a*i + c) mod n with
// a = 1 mod 4 and c odd (Hull-Dobell), so the fill is one sequential
// pass while the chase's addresses jump unpredictably.
double timed_chase(std::size_t bytes, std::uint64_t loads) {
  const std::size_t n = bytes / sizeof(std::uint32_t);
  std::vector<std::uint32_t> next(n);
  const std::uint64_t a = 0x5851F42Du * 4 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = static_cast<std::uint32_t>((a * i + 0x9E3779B9u) & (n - 1));
  }
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 1u << 16); ++i) at = next[at];
  const double start = wall_s();
  for (std::uint64_t k = 0; k < loads; ++k) at = next[at];
  const double took = wall_s() - start;
  // `at` feeds the result so the chase cannot be optimized away.
  return took + static_cast<double>(at & 1u) * 1e-12;
}

// Builds a node-based hash table of n keys (one allocation per node)
// and probes it 2n times, half of them misses.
double timed_hash_table(std::size_t n) {
  const double start = wall_s();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::size_t i = 0; i < n; ++i) table[mix64(i)] = i;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const auto it = table.find(mix64(i));
    if (it != table.end()) sink += it->second;
  }
  return wall_s() - start + static_cast<double>(sink & 1u) * 1e-12;
}

}  // namespace

int calibrate_main() {
  const double chase = timed_chase(8 << 20, 250'000);
  const double hash_table = timed_hash_table(100'000);
  std::printf("%.17g %.17g\n", chase, hash_table);
  return 0;
}

Calibration calibrate() {
  const Calibration failed{-1, -1};
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) return failed;
  exe[len] = '\0';
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return failed;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  char flag[] = "--calibrate";
  char* argv[] = {exe, flag, nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    for (;;) {
      const ssize_t k = read(fds[0], buf, sizeof buf);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) break;
      out.append(buf, static_cast<std::size_t>(k));
    }
  }
  close(fds[0]);
  if (rc != 0) return failed;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Calibration c;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "%lf %lf", &c.chase_s, &c.hash_table_s) != 2) {
    return failed;
  }
  return c;
}

HostSpeed host_speed(const std::vector<Calibration>& calibrations) {
  HostSpeed out;
  out.samples = calibrations.size();
  std::vector<double> chase, hash_table, total;
  for (const Calibration& c : calibrations) {
    if (c.total_s() <= 0) return out;
    chase.push_back(c.chase_s);
    hash_table.push_back(c.hash_table_s);
    total.push_back(c.total_s());
  }
  if (total.empty()) return out;
  out.median = {median(chase), median(hash_table)};
  out.factor = kReferenceCalibrationS / median(total);
  return out;
}

HostInfo probe_host() {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
#ifdef SDSBENCH_BUILD_TYPE
  host.build_type = SDSBENCH_BUILD_TYPE;
#endif
  host.load_start = load_average_1m();
  return host;
}

// -- JSON ----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

void Json::key(const std::string& k) {
  if (body_.size() > 1) body_ += ",";
  body_ += json_string(k) + ":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

Json& Json::integer(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_string(v);
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

Json& Json::nums(const std::string& k, const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (const double x : v) items.push_back(json_number(x));
  return raw(k, json_array(items));
}

std::string host_json(const HostInfo& host) {
  return Json()
      .str("cpu_model", host.cpu_model)
      .integer("nproc", host.nproc)
      .str("compiler", host.compiler)
      .str("build_type", host.build_type)
      .num("load_avg_1m_start", host.load_start)
      .num("load_avg_1m_end", host.load_end)
      .num("host_speed_factor", host.speed.factor)
      .integer("calibrations", host.speed.samples)
      .num("calibration_chase_s", host.speed.median.chase_s)
      .num("calibration_hash_table_s", host.speed.median.hash_table_s)
      .done();
}

double speed_factor(const Calibration& before, const Calibration& after) {
  if (before.total_s() <= 0 || after.total_s() <= 0) return 0;
  return kReferenceCalibrationS / (0.5 * (before.total_s() + after.total_s()));
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace sdsbench
