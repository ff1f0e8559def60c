#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/rng.h"

namespace sds::fault {

namespace {

/// Deterministic uniform [0,1) draw from a key tuple: SplitMix64 over the
/// mixed key. Pure — the same (seed, kind, cycle, entity) always yields
/// the same value regardless of draw order or thread timing.
double hash01(std::uint64_t seed, std::uint64_t kind, std::uint64_t cycle,
              std::uint64_t entity) {
  SplitMix64 sm(seed ^ (kind * 0x9E3779B97F4A7C15ULL) ^
                (cycle * 0xC2B2AE3D27D4EB4FULL) ^
                (entity * 0x165667B19E3779F9ULL));
  // One warm-up step decorrelates nearby keys before the output draw.
  (void)sm.next();
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

Nanos seconds_to_nanos(double s) {
  return Nanos{static_cast<std::int64_t>(s * 1e9)};
}

/// Expand a Poisson failure process for one entity: exponential
/// inter-arrival times with mean `mtbf_s`, exponential outages with mean
/// `downtime_s` (<= 0 downtime means permanent).
void expand_churn(Rng& rng, double mtbf_s, double downtime_s, Nanos horizon,
                  std::vector<DownInterval>& out) {
  if (mtbf_s <= 0) return;
  double t_s = rng.exponential(1.0 / mtbf_s);
  while (seconds_to_nanos(t_s) < horizon) {
    const Nanos at = seconds_to_nanos(t_s);
    if (downtime_s <= 0) {
      out.push_back({at, CompiledPlan::kNever});
      return;
    }
    const double outage_s = rng.exponential(1.0 / downtime_s);
    out.push_back({at, at + seconds_to_nanos(outage_s)});
    t_s += outage_s + rng.exponential(1.0 / mtbf_s);
  }
}

/// Mean number of outages expand_churn draws per entity, plus one: a
/// capacity hint so a tier's timeline array is written once.
std::size_t expected_churn_outages(double mtbf_s, double downtime_s,
                                   Nanos horizon) {
  if (mtbf_s <= 0) return 0;
  if (downtime_s <= 0) return 1;
  return static_cast<std::size_t>(to_seconds(horizon) / (mtbf_s + downtime_s)) +
         1;
}

}  // namespace

FaultPlan& FaultPlan::crash_stage(std::uint32_t stage, Nanos at,
                                  Nanos down_for) {
  stage_crashes.push_back({stage, at, down_for});
  return *this;
}

FaultPlan& FaultPlan::crash_aggregator(std::uint32_t aggregator, Nanos at,
                                       Nanos down_for) {
  aggregator_crashes.push_back({aggregator, at, down_for});
  return *this;
}

FaultPlan& FaultPlan::slow(std::uint32_t first, std::uint32_t last, Nanos from,
                           Nanos until, double multiplier) {
  slow_windows.push_back({first, last, from, until, multiplier});
  return *this;
}

FaultPlan& FaultPlan::partition(std::uint32_t first, std::uint32_t last,
                                Nanos from, Nanos until) {
  partitions.push_back({first, last, from, until});
  return *this;
}

bool FaultPlan::empty() const {
  return stage_crashes.empty() && aggregator_crashes.empty() &&
         slow_windows.empty() && partitions.empty() && stage_mtbf_s <= 0 &&
         aggregator_mtbf_s <= 0 && drop_probability <= 0 &&
         duplicate_probability <= 0 && delay_probability <= 0;
}

Status FaultPlan::validate() const {
  if (quorum <= 0.0 || quorum > 1.0) {
    return Status::invalid_argument("fault plan: quorum must be in (0, 1]");
  }
  if (phase_timeout <= Nanos{0}) {
    return Status::invalid_argument("fault plan: phase_timeout must be > 0");
  }
  const auto prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!prob(drop_probability) || !prob(duplicate_probability) ||
      !prob(delay_probability) ||
      drop_probability + duplicate_probability + delay_probability > 1.0) {
    return Status::invalid_argument(
        "fault plan: message-fault probabilities must be in [0,1] and sum "
        "to <= 1");
  }
  if (stage_mtbf_s < 0 || aggregator_mtbf_s < 0) {
    return Status::invalid_argument("fault plan: MTBF must be >= 0");
  }
  if (delay < Nanos{0}) {
    return Status::invalid_argument("fault plan: delay must be >= 0");
  }
  for (const SlowWindow& w : slow_windows) {
    if (w.multiplier < 1.0) {
      return Status::invalid_argument(
          "fault plan: slow-window multiplier must be >= 1");
    }
    if (w.last_stage < w.first_stage || w.until <= w.from) {
      return Status::invalid_argument("fault plan: malformed slow window");
    }
  }
  for (const PartitionWindow& w : partitions) {
    if (w.last_stage < w.first_stage || w.until <= w.from) {
      return Status::invalid_argument("fault plan: malformed partition");
    }
  }
  return Status::ok();
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& why) -> Status {
    return Status::invalid_argument("fault plan line " +
                                    std::to_string(line_no) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tok(line);
    std::string word;
    if (!(tok >> word)) continue;  // blank / comment-only line
    if (word == "seed") {
      if (!(tok >> plan.seed)) return fail("expected: seed <u64>");
    } else if (word == "quorum") {
      if (!(tok >> plan.quorum)) return fail("expected: quorum <fraction>");
    } else if (word == "timeout_ms") {
      double ms = 0;
      if (!(tok >> ms)) return fail("expected: timeout_ms <ms>");
      plan.phase_timeout = Nanos{static_cast<std::int64_t>(ms * 1e6)};
    } else if (word == "churn") {
      std::string tier, k1, k2;
      double mtbf = 0;
      double down = 0;
      if (!(tok >> tier >> k1 >> mtbf >> k2 >> down) || k1 != "mtbf_s" ||
          k2 != "downtime_s") {
        return fail("expected: churn stage|aggregator mtbf_s <s> downtime_s <s>");
      }
      if (tier == "stage") {
        plan.stage_mtbf_s = mtbf;
        plan.stage_downtime_s = down;
      } else if (tier == "aggregator") {
        plan.aggregator_mtbf_s = mtbf;
        plan.aggregator_downtime_s = down;
      } else {
        return fail("churn tier must be stage or aggregator");
      }
    } else if (word == "drop") {
      if (!(tok >> plan.drop_probability)) return fail("expected: drop <p>");
    } else if (word == "duplicate") {
      if (!(tok >> plan.duplicate_probability)) {
        return fail("expected: duplicate <p>");
      }
    } else if (word == "delay") {
      double us = 0;
      if (!(tok >> plan.delay_probability >> us)) {
        return fail("expected: delay <p> <extra latency µs>");
      }
      plan.delay = Nanos{static_cast<std::int64_t>(us * 1e3)};
    } else if (word == "crash") {
      std::string tier, k1, k2;
      std::uint32_t id = 0;
      double at_ms = 0;
      double for_ms = 0;
      if (!(tok >> tier >> id >> k1 >> at_ms >> k2 >> for_ms) ||
          k1 != "at_ms" || k2 != "for_ms") {
        return fail("expected: crash stage|aggregator <id> at_ms <ms> for_ms <ms>");
      }
      const Nanos at{static_cast<std::int64_t>(at_ms * 1e6)};
      const Nanos down{static_cast<std::int64_t>(for_ms * 1e6)};
      if (tier == "stage") {
        plan.crash_stage(id, at, down);
      } else if (tier == "aggregator") {
        plan.crash_aggregator(id, at, down);
      } else {
        return fail("crash tier must be stage or aggregator");
      }
    } else if (word == "slow") {
      std::uint32_t first = 0;
      std::uint32_t last = 0;
      std::string k1, k2, k3;
      double from_ms = 0;
      double until_ms = 0;
      double mult = 1.0;
      if (!(tok >> first >> last >> k1 >> from_ms >> k2 >> until_ms >> k3 >>
            mult) ||
          k1 != "from_ms" || k2 != "until_ms" || k3 != "x") {
        return fail(
            "expected: slow <first> <last> from_ms <ms> until_ms <ms> x <mult>");
      }
      plan.slow(first, last, Nanos{static_cast<std::int64_t>(from_ms * 1e6)},
                Nanos{static_cast<std::int64_t>(until_ms * 1e6)}, mult);
    } else if (word == "partition") {
      std::uint32_t first = 0;
      std::uint32_t last = 0;
      std::string k1, k2;
      double from_ms = 0;
      double until_ms = 0;
      if (!(tok >> first >> last >> k1 >> from_ms >> k2 >> until_ms) ||
          k1 != "from_ms" || k2 != "until_ms") {
        return fail("expected: partition <first> <last> from_ms <ms> until_ms <ms>");
      }
      plan.partition(first, last,
                     Nanos{static_cast<std::int64_t>(from_ms * 1e6)},
                     Nanos{static_cast<std::int64_t>(until_ms * 1e6)});
    } else {
      return fail("unknown directive '" + word + "'");
    }
  }
  SDS_RETURN_IF_ERROR(plan.validate());
  return plan;
}

Result<FaultPlan> FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::not_found("fault plan file: " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return parse(contents.str());
}

CompiledPlan CompiledPlan::compile(const FaultPlan& plan,
                                   std::size_t num_stages,
                                   std::size_t num_aggregators, Nanos horizon) {
  CompiledPlan compiled;
  compiled.seed_ = plan.seed;
  compiled.quorum_ = plan.quorum;
  compiled.phase_timeout_ = plan.phase_timeout;
  compiled.max_extensions_ = plan.max_deadline_extensions;
  compiled.drop_p_ = plan.drop_probability;
  compiled.dup_p_ = plan.duplicate_probability;
  compiled.delay_p_ = plan.delay_probability;
  compiled.delay_ = plan.delay;
  compiled.slow_windows_ = plan.slow_windows;
  compiled.partitions_ = plan.partitions;

  // Scripted crashes, grouped by entity (sparse: most have none).
  std::vector<std::vector<DownInterval>> stage_crashes(num_stages);
  std::vector<std::vector<DownInterval>> aggregator_crashes(num_aggregators);
  for (const StageCrash& crash : plan.stage_crashes) {
    if (crash.stage >= num_stages) continue;  // off-topology: ignore
    const Nanos until =
        crash.down_for > Nanos{0} ? crash.at + crash.down_for : kNever;
    stage_crashes[crash.stage].push_back({crash.at, until});
  }
  for (const AggregatorCrash& crash : plan.aggregator_crashes) {
    if (crash.aggregator >= num_aggregators) continue;
    const Nanos until =
        crash.down_for > Nanos{0} ? crash.at + crash.down_for : kNever;
    aggregator_crashes[crash.aggregator].push_back({crash.at, until});
  }

  // Each entity's timeline is its crashes plus its churn, expanded from
  // one split RNG stream per entity, derived from (seed, tier, id) —
  // independent of every other entity's stream.
  std::vector<DownInterval> scratch;
  const auto build_tier = [&](Timelines& tier,
                              const std::vector<std::vector<DownInterval>>& crashes,
                              double mtbf_s, double downtime_s,
                              std::size_t crash_count, auto stream_seed) {
    tier.reserve(crashes.size(),
                 crashes.size() * expected_churn_outages(mtbf_s, downtime_s,
                                                         horizon) +
                     crash_count);
    for (std::size_t e = 0; e < crashes.size(); ++e) {
      scratch = crashes[e];
      if (mtbf_s > 0) {
        Rng rng(SplitMix64(stream_seed(e)).next());
        expand_churn(rng, mtbf_s, downtime_s, horizon, scratch);
      }
      tier.append(scratch);
    }
  };
  build_tier(compiled.stage_down_, stage_crashes, plan.stage_mtbf_s,
             plan.stage_downtime_s, plan.stage_crashes.size(),
             [&](std::size_t i) { return plan.seed ^ (0xA11CE5ULL + i); });
  build_tier(compiled.aggregator_down_, aggregator_crashes,
             plan.aggregator_mtbf_s, plan.aggregator_downtime_s,
             plan.aggregator_crashes.size(), [&](std::size_t a) {
               return plan.seed ^ (0xB0B0ULL + (a << 20));
             });
  compiled.total_outages_ =
      compiled.stage_down_.total() + compiled.aggregator_down_.total();
  return compiled;
}

void CompiledPlan::Timelines::reserve(std::size_t entities,
                                      std::size_t intervals) {
  offsets_.reserve(entities + 1);
  if (offsets_.empty()) offsets_.push_back(0);
  // A hint only: a short estimate costs one regrowth. Pages of a large
  // reservation that are never written stay out of the resident set.
  intervals_.reserve(intervals + intervals / 4);
}

void CompiledPlan::Timelines::append(std::vector<DownInterval>& intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const DownInterval& a, const DownInterval& b) {
              return a.from < b.from;
            });
  // Merge overlapping outages (ties in `from` merge whatever their order).
  const std::size_t begin = intervals_.size();
  for (const DownInterval& iv : intervals) {
    if (intervals_.size() > begin && iv.from <= intervals_.back().until) {
      intervals_.back().until = std::max(intervals_.back().until, iv.until);
    } else {
      intervals_.push_back(iv);
    }
  }
  offsets_.push_back(static_cast<std::uint32_t>(intervals_.size()));
}

bool CompiledPlan::up_at(std::span<const DownInterval> intervals, Nanos t) {
  // First interval starting after t; the one before it is the only
  // candidate cover.
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](Nanos value, const DownInterval& iv) { return value < iv.from; });
  if (it == intervals.begin()) return true;
  --it;
  return t >= it->until;
}

bool CompiledPlan::stage_up(std::size_t stage, Nanos t) const {
  return stage >= stage_down_.size() || up_at(stage_down_.of(stage), t);
}

bool CompiledPlan::aggregator_up(std::size_t aggregator, Nanos t) const {
  return aggregator >= aggregator_down_.size() ||
         up_at(aggregator_down_.of(aggregator), t);
}

bool CompiledPlan::partitioned(std::size_t stage, Nanos t) const {
  for (const PartitionWindow& w : partitions_) {
    if (stage >= w.first_stage && stage <= w.last_stage && t >= w.from &&
        t < w.until) {
      return true;
    }
  }
  return false;
}

double CompiledPlan::service_multiplier(std::size_t stage, Nanos t) const {
  double multiplier = 1.0;
  for (const SlowWindow& w : slow_windows_) {
    if (stage >= w.first_stage && stage <= w.last_stage && t >= w.from &&
        t < w.until) {
      multiplier = std::max(multiplier, w.multiplier);
    }
  }
  return multiplier;
}

MessageFate CompiledPlan::message_fate(MessageKind kind, std::uint64_t cycle,
                                       std::uint64_t entity) const {
  if (drop_p_ <= 0 && dup_p_ <= 0 && delay_p_ <= 0) return MessageFate::kDeliver;
  const double u =
      hash01(seed_, static_cast<std::uint64_t>(kind), cycle, entity);
  if (u < drop_p_) return MessageFate::kDrop;
  if (u < drop_p_ + dup_p_) return MessageFate::kDuplicate;
  if (u < drop_p_ + dup_p_ + delay_p_) return MessageFate::kDelay;
  return MessageFate::kDeliver;
}

Nanos CompiledPlan::last_stage_restart_before(std::size_t stage,
                                              Nanos t) const {
  if (stage >= stage_down_.size()) return Nanos{-1};
  const std::span<const DownInterval> intervals = stage_down_.of(stage);
  // Merged intervals are disjoint and sorted, so their ends ascend too:
  // the outages over by `t` are a prefix, and the last of them holds the
  // latest restart. A permanent outage (kNever) never restarts.
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](Nanos value, const DownInterval& iv) { return value < iv.until; });
  if (it != intervals.begin() && std::prev(it)->until == kNever) --it;
  return it == intervals.begin() ? Nanos{-1} : std::prev(it)->until;
}

OutageCursor::OutageCursor(const CompiledPlan& plan, Tier tier)
    : plan_(&plan),
      tier_(tier),
      windows_(tier == Tier::kStage ? plan.num_stages()
                                    : plan.num_aggregators()) {}

// sdslint: hotpath
void OutageCursor::seek(std::size_t entity, Nanos t, Window& w) const {
  const std::span<const DownInterval> intervals =
      tier_ == Tier::kStage ? plan_->stage_outages(entity)
                            : plan_->aggregator_outages(entity);
  // The outages started by `t` are a prefix [0, k). Moving forward, the
  // ones started by the window's end are already known to be in it.
  const auto first = t >= w.until ? intervals.begin() + w.next
                                  : intervals.begin();
  const auto it = std::upper_bound(
      first, intervals.end(), t,
      [](Nanos value, const DownInterval& iv) { return value < iv.from; });
  const auto k = static_cast<std::size_t>(it - intervals.begin());
  w.next = static_cast<std::uint32_t>(k);
  if (k == 0) {
    w.from = Nanos{std::numeric_limits<std::int64_t>::min()};
    w.until = intervals.empty() ? CompiledPlan::kNever : intervals[0].from;
    w.last_restart = Nanos{-1};
    w.up = true;
    return;
  }
  // Merged outages are disjoint with gaps between them, so only the last
  // one started can cover `t`, and the one before it ended in the past.
  const DownInterval& last = intervals[k - 1];
  const Nanos restart_before_last = k >= 2 ? intervals[k - 2].until : Nanos{-1};
  if (t < last.until) {
    w.from = last.from;
    w.until = last.until;
    w.last_restart = restart_before_last;
    w.up = false;
    return;
  }
  w.from = last.until;
  w.until = k < intervals.size() ? intervals[k].from : CompiledPlan::kNever;
  // A permanent outage never restarts (t == kNever is its only "after").
  w.last_restart =
      last.until == CompiledPlan::kNever ? restart_before_last : last.until;
  w.up = true;
}
// sdslint: end-hotpath

std::size_t CompiledPlan::quorum_count(std::size_t expected) const {
  if (expected == 0) return 0;
  const auto count =
      static_cast<std::size_t>(std::ceil(quorum_ * static_cast<double>(expected)));
  return std::min(std::max<std::size_t>(count, 1), expected);
}

}  // namespace sds::fault
