#include "sim/experiment.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aggregator.h"
#include "core/coordinated.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "policy/incremental_psfa.h"
#include "sim/engine.h"
#include "sim/host.h"

namespace sds::sim {

namespace {

template <typename M>
std::size_t frame_size(const M& msg) {
  return msg.wire_size() + wire::kFrameHeaderSize;
}

Nanos scaled(Nanos per_item, std::size_t count) {
  return Nanos{per_item.count() * static_cast<std::int64_t>(count)};
}

// Compile-time guard for the per-stage paths. A closure that does not
// fit SmallFn's inline buffer costs one heap allocation per stage per
// cycle, so on these paths it fails the build instead. It checks a
// closure handed to the engine or to SimHost::run/receive/send/broadcast,
// each of which puts the closure itself into its engine cell.
template <typename F>
F&& inline_event(F&& fn) {
  static_assert(SmallFn::kStoresInline<std::decay_t<F>>,
                "per-stage closure spills out of SmallFn's inline buffer");
  return std::forward<F>(fn);
}

/// One collect reply in flight: exactly one report, the full
/// StageMetrics or (under delta_collect) its delta against the stage's
/// previous report, plus the route back to its Collector as 32-bit
/// indices. The cycle it answers is the report's own cycle_id. `this`
/// plus a StageReply fills a SmallFn cell exactly, so a reply crosses
/// the wire and the receive queue with no heap allocation.
class StageReply {
 public:
  StageReply(const proto::StageMetrics& full, std::uint32_t collector,
             std::uint32_t slot)
      : full_(full), collector_(collector), slot_(slot), is_delta_(false) {}
  StageReply(const proto::StageMetricsDelta& delta, std::uint32_t collector,
             std::uint32_t slot)
      : delta_(delta), collector_(collector), slot_(slot), is_delta_(true) {}

  [[nodiscard]] bool is_delta() const { return is_delta_; }
  [[nodiscard]] const proto::StageMetrics& full() const { return full_; }
  [[nodiscard]] const proto::StageMetricsDelta& delta() const { return delta_; }
  [[nodiscard]] std::uint64_t cycle() const {
    return is_delta_ ? delta_.cycle_id : full_.cycle_id;
  }
  /// Index of the collecting controller (aggregator or peer; 0 for the
  /// flat global controller) and the stage's slot in it.
  [[nodiscard]] std::uint32_t collector() const { return collector_; }
  [[nodiscard]] std::uint32_t slot() const { return slot_; }

  /// Modeled frame bytes of the report as sent.
  [[nodiscard]] std::size_t wire() const {
    return is_delta_ ? frame_size(delta_) : frame_size(full_);
  }
  /// Frame bytes the full report would have taken (its size depends on
  /// the cycle id only).
  [[nodiscard]] std::size_t wire_full() const {
    if (!is_delta_) return frame_size(full_);
    proto::StageMetrics full;
    full.cycle_id = delta_.cycle_id;
    return frame_size(full);
  }

  /// The duplicate copy of a reply pays receive cost but is discarded.
  [[nodiscard]] bool duplicate() const { return duplicate_; }
  [[nodiscard]] StageReply as_duplicate() const {
    StageReply copy = *this;
    copy.duplicate_ = true;
    return copy;
  }

 private:
  union {
    proto::StageMetrics full_;
    proto::StageMetricsDelta delta_;
  };
  std::uint32_t collector_;
  std::uint32_t slot_;
  bool is_delta_;
  bool duplicate_ = false;
};
static_assert(std::is_trivially_copyable_v<StageReply>);

/// One quorum/deadline phase of a controller: a collect waiting for
/// replies or reports, or an enforce waiting for acks. Without a fault
/// plan a gate only counts arrivals down. Under a plan the controller
/// arms it (Run::arm): it then admits only the first copy from each
/// sender for its own cycle, and its deadline (Run::on_deadline) extends
/// it or closes it degraded.
struct PhaseGate {
  std::size_t expected = 0;
  std::size_t pending = 0;
  bool open = false;
  std::size_t extensions = 0;
  /// Sender-indexed first-copy guard, sized when the gate is armed.
  std::vector<char> seen;

  void expect(std::size_t n) { expected = pending = n; }
  /// Counts one arrival; true when it was the last, which closes the gate.
  bool arrive() {
    if (--pending > 0) return false;
    open = false;
    return true;
  }
};

struct Node;

/// The stage-facing half of a controller — the flat global controller,
/// an aggregator or a coordinated peer — plus its two gates: its host,
/// its block of stages, where their reports land, and the cycle's
/// enforcement and fault accounting. The global controller of a
/// hierarchy and each super-aggregator own one without stages, whose
/// gates count their children's reports and merged acks; the global
/// controller's also gathers the cycle's stale and recovery accounting.
struct Collector {
  /// Aggregator, super-aggregator or peer index (0 for the global
  /// controller).
  std::uint32_t index = 0;
  /// The tree node that owns this collector (nullptr for a peer).
  Node* node = nullptr;
  SimHost* host = nullptr;
  /// Slot i is stage first_stage + i.
  std::size_t first_stage = 0;
  std::size_t slots = 0;
  /// Store path: reports fold into this store in place. Batch path
  /// (nullptr): they land in `reports`, slot-indexed when `slot_ordered`
  /// (the flat global controller computes on them in slot order),
  /// arrival-ordered otherwise (aggregators and peers aggregate them in
  /// arrival order).
  core::MetricsStore* store = nullptr;
  bool slot_ordered = false;
  std::vector<proto::StageMetrics> reports;
  PhaseGate collect;
  PhaseGate enforce;
  /// Cycle of the most recently armed gate, shared by both: once a
  /// controller arms a phase of a newer cycle, replies, acks and
  /// deadlines stamped with an older one no longer count.
  std::uint64_t armed_cycle = 0;
  std::uint32_t acks_applied = 0;
  /// Latest instant one of this controller's stages applied a rule this
  /// cycle (the `disseminate` boundary). Nanos{-1} = none applied.
  Nanos rule_applied_max{-1};
  /// Silent stages and recovery samples of the current cycle.
  std::size_t stale = 0;
  std::vector<Nanos> recoveries;

  [[nodiscard]] bool admits(const PhaseGate& gate, std::uint64_t cycle) const {
    return gate.open && armed_cycle == cycle;
  }
  /// Admits the first copy from `sender` for `cycle`.
  bool accept(PhaseGate& gate, std::uint64_t cycle, std::size_t sender) {
    if (!admits(gate, cycle) || gate.seen[sender] != 0) return false;
    gate.seen[sender] = 1;
    return true;
  }
};

/// One controller of the tree above the stages: the global controller
/// (the root), a super-aggregator or an aggregator. An aggregator's
/// collector faces its stages; the root's and a super-aggregator's face
/// their children. In the flat design the root is the only node and
/// faces every stage. Collect requests and decisions go down the tree,
/// reports and merged acks come up, and a node's own step is what it
/// does when one of its gates closes (Run::collect_closed and
/// Run::enforce_closed).
struct Node {
  Node() { col.node = this; }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Collector col;
  Node* parent = nullptr;
  /// Position among the parent's children: the slot of this node's
  /// report and its sender index at the parent's gates.
  std::uint32_t pos = 0;
  std::vector<Node*> children;
  /// Owned host (the root runs on the global controller's).
  std::unique_ptr<SimHost> host;
  /// Aggregators only.
  std::unique_ptr<core::AggregatorCore> core;
  /// Child-position-indexed summaries of the cycle, so the merge or
  /// compute input is canonical whatever the arrival order.
  std::vector<proto::AggregatedMetrics> child_reports;
  /// Latest aggregator collect-close among the reports received this
  /// cycle (at the root, the `aggregate` boundary). Nanos{-1} = none.
  Nanos child_close_max{-1};
  /// The cycle's rules for this node's subtree: an aggregator's from
  /// the global compute, a super-aggregator's its children's in child
  /// order.
  proto::EnforceBatch batch;
};

/// One simulated run. Event closures capture `this` and plain indices;
/// all vectors are sized before the first event fires. Cross-cycle
/// aggregates (peer summaries, aggregator reports, passthrough batches)
/// are id-indexed rather than accumulated in arrival order, so the input
/// a controller computes on is canonical regardless of which reply
/// landed last. Every controller is a Collector, so the collect fan-out,
/// stage reply, enforce and ack handlers and the deadline handler exist
/// once; every controller above the stages is a Node, so the fan-outs to
/// children and the child report and merged-ack handlers exist once for
/// every tier. What a topology adds are the continuations
/// collect_closed() and enforce_closed().
class Run {
 public:
  explicit Run(const ExperimentConfig& config)
      : cfg_(config),
        prof_(config.profile),
        global_host_(eng_, prof_, "global"),
        global_(core::GlobalOptions{config.budgets,
                                    policy::SplitStrategy::kProportional,
                                    /*epoch=*/1},
                std::make_unique<policy::IncrementalPsfa>(config.psfa)),
        store_(core::MetricsStoreOptions{config.activity_threshold}) {
    if (cfg_.metrics != nullptr) {
      telemetry::Labels labels{{"component", "sim"}};
      if (!cfg_.telemetry_label.empty()) {
        labels.emplace_back("configuration", cfg_.telemetry_label);
      }
      stats_.bind(cfg_.metrics, labels);
      events_gauge_ = cfg_.metrics->gauge("sds_sim_events_executed", labels);
      vtime_gauge_ =
          cfg_.metrics->gauge("sds_sim_virtual_time_seconds", labels);
    }
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->set_track_name(0, "global controller");
      if (cfg_.num_aggregators > 0) {
        for (std::size_t a = 0; a < cfg_.num_aggregators; ++a) {
          cfg_.tracer->set_track_name(static_cast<std::uint32_t>(1 + a),
                                      "aggregator " + std::to_string(a));
        }
      } else if (cfg_.coordinated_peers == 0) {
        cfg_.tracer->set_track_name(1, "stage 0");
      }
    }
  }

  Status validate() const {
    const std::size_t cap = prof_.max_connections_per_node;
    if (cfg_.num_stages == 0) {
      return Status::invalid_argument("num_stages must be > 0");
    }
    if (cfg_.num_super_aggregators > 0 &&
        (cfg_.num_aggregators == 0 || coordinated())) {
      return Status::invalid_argument(
          "super-aggregators require aggregators and no coordinated peers");
    }
    if ((flat() || coordinated()) &&
        (cfg_.local_decisions || !cfg_.preaggregate || !cfg_.parallel_fanout)) {
      return Status::invalid_argument(
          "local_decisions, preaggregate and parallel_fanout configure the "
          "aggregator tier, which the flat and coordinated topologies lack");
    }
    // Delta frames and the compute-view threshold exist only in a store.
    if ((cfg_.delta_collect || cfg_.activity_threshold > 0) &&
        *store_fallback_reason() != '\0') {
      return Status::invalid_argument(
          std::string(cfg_.delta_collect ? "delta_collect"
                                         : "activity_threshold > 0") +
          " needs the store-backed collect path; this run takes the batch "
          "path (" + store_fallback_reason() + ")");
    }
    if (cfg_.delta_collect && cfg_.delta_refresh == 0) {
      return Status::invalid_argument("delta_refresh must be > 0");
    }
    if (faulted()) {
      SDS_RETURN_IF_ERROR(cfg_.fault_plan->validate());
      if (coordinated() || deep() || cfg_.local_decisions) {
        return Status::invalid_argument(
            "fault injection supports only the flat and 2-level "
            "hierarchical topologies with central decisions");
      }
      if (!flat() && (!cfg_.preaggregate || !cfg_.parallel_fanout)) {
        return Status::invalid_argument(
            "fault injection in hierarchical mode requires pre-aggregation "
            "and parallel fan-out");
      }
    }
    if (cfg_.coordinated_peers > 0) {
      if (cfg_.num_aggregators > 0) {
        return Status::invalid_argument(
            "coordinated_peers and num_aggregators are mutually exclusive");
      }
      const std::size_t k = cfg_.coordinated_peers;
      const std::size_t per_peer = (cfg_.num_stages + k - 1) / k;
      if (cap != 0 && per_peer + (k - 1) > cap) {
        return Status::resource_exhausted(
            "coordinated peer would hold " + std::to_string(per_peer + k - 1) +
            " connections, above the per-node cap of " + std::to_string(cap));
      }
      return Status::ok();
    }
    if (flat()) {
      if (cap != 0 && cfg_.num_stages > cap) {
        return Status::resource_exhausted(
            "flat design: " + std::to_string(cfg_.num_stages) +
            " stages exceed the per-node connection cap of " +
            std::to_string(cap));
      }
      return Status::ok();
    }
    if (deep()) {
      if (!cfg_.preaggregate || !cfg_.parallel_fanout || cfg_.local_decisions) {
        return Status::invalid_argument(
            "3-level hierarchies require pre-aggregation, parallel fan-out "
            "and central decisions");
      }
      if (cfg_.num_super_aggregators > cfg_.num_aggregators) {
        return Status::invalid_argument(
            "more super-aggregators than aggregators");
      }
      const std::size_t children =
          (cfg_.num_aggregators + cfg_.num_super_aggregators - 1) /
          cfg_.num_super_aggregators;
      if (cap != 0 && cfg_.num_super_aggregators > cap) {
        return Status::resource_exhausted("too many super-aggregators");
      }
      if (cap != 0 && children + 1 > cap) {
        return Status::resource_exhausted(
            "super-aggregator subtree exceeds the connection cap");
      }
      const std::size_t per_agg =
          (cfg_.num_stages + cfg_.num_aggregators - 1) / cfg_.num_aggregators;
      if (cap != 0 && per_agg + 1 > cap) {
        return Status::resource_exhausted(
            "aggregator subtree of " + std::to_string(per_agg) +
            " stages (+1 upstream link) exceeds the per-node connection "
            "cap of " + std::to_string(cap));
      }
      return Status::ok();
    }
    if (cap != 0 && cfg_.num_aggregators > cap) {
      return Status::resource_exhausted("too many aggregators for one node");
    }
    const std::size_t per_agg =
        (cfg_.num_stages + cfg_.num_aggregators - 1) / cfg_.num_aggregators;
    if (cap != 0 && per_agg > cap) {
      return Status::resource_exhausted(
          "aggregator subtree of " + std::to_string(per_agg) +
          " stages exceeds the per-node connection cap of " +
          std::to_string(cap));
    }
    return Status::ok();
  }

  ExperimentResult execute() {
    if (faulted()) {
      // Compile once against the topology; horizon covers the run twice
      // over so late cycles still see churn. Everything below queries
      // this pure value only — injection is a function of (seed, cycle,
      // entity, virtual time), never of event interleaving.
      fault_ = std::make_unique<fault::CompiledPlan>(fault::CompiledPlan::compile(
          *cfg_.fault_plan, cfg_.num_stages, cfg_.num_aggregators,
          cfg_.duration * 2));
      stage_outages_ = fault::OutageCursor(*fault_,
                                           fault::OutageCursor::Tier::kStage);
      agg_outages_ = fault::OutageCursor(
          *fault_, fault::OutageCursor::Tier::kAggregator);
      last_fresh_at_.assign(cfg_.num_stages, Nanos{-1});
    }
    collect_fallback_reason_ = store_fallback_reason();
    store_collect_ = collect_fallback_reason_.empty();
    delta_collect_ = cfg_.delta_collect && store_collect_;
    build_topology();
    if (cfg_.utilization_sample_interval > Nanos{0}) {
      sample_at_ = cfg_.utilization_sample_interval;
      sample_pending_ = true;
    }
    start_cycle();
    run_events();
    return finalize();
  }

 private:
  [[nodiscard]] bool coordinated() const { return cfg_.coordinated_peers > 0; }
  /// A third control level; validate() ensures aggregators below it.
  [[nodiscard]] bool deep() const { return cfg_.num_super_aggregators > 0; }
  [[nodiscard]] bool flat() const {
    return cfg_.num_aggregators == 0 && !coordinated();
  }

  /// A non-empty fault plan is attached (fault_ is compiled from it).
  [[nodiscard]] bool faulted() const {
    return cfg_.fault_plan != nullptr && !cfg_.fault_plan->empty();
  }

  /// Why this run takes the batch path (empty when it takes the store
  /// path); see ExperimentResult::collect_fallback_reason.
  [[nodiscard]] const char* store_fallback_reason() const {
    if (faulted()) return "fault plan";
    if (coordinated()) return "coordinated mode";
    if (flat()) return "";
    if (!cfg_.preaggregate) return "pass-through mode";
    if (cfg_.local_decisions) return "local decisions";
    return "";
  }

  [[nodiscard]] std::size_t num_jobs() const {
    return (cfg_.num_stages + cfg_.stages_per_job - 1) / cfg_.stages_per_job;
  }

  void build_topology() {
    Rng rng(cfg_.seed);
    stages_.reserve(cfg_.num_stages);
    for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
      proto::StageInfo info;
      info.stage_id = StageId{static_cast<std::uint32_t>(i)};
      info.node_id = NodeId{static_cast<std::uint32_t>(i)};
      info.job_id =
          JobId{static_cast<std::uint32_t>(i / cfg_.stages_per_job)};
      // Built in two steps: GCC 12's -Wrestrict misfires on the
      // operator+ temporary here under -O2 (PR 105329).
      info.hostname = "c";
      info.hostname += std::to_string(i);
      stage::DemandFn data;
      stage::DemandFn meta;
      if (cfg_.demand_factory) {
        data = cfg_.demand_factory(info.stage_id, stage::Dimension::kData);
        meta = cfg_.demand_factory(info.stage_id, stage::Dimension::kMeta);
      } else {
        const double d = rng.uniform(500.0, 1500.0);
        const double m = rng.uniform(50.0, 150.0);
        data = [d](Nanos) { return d; };
        meta = [m](Nanos) { return m; };
      }
      stages_.emplace_back(info, std::move(data), std::move(meta));
    }

    root_.col.host = &global_host_;
    if (coordinated()) {
      const std::size_t k = cfg_.coordinated_peers;
      peers_.reserve(k);
      for (std::size_t p = 0; p < k; ++p) {
        auto peer = std::make_unique<Peer>();
        peer->core = std::make_unique<core::CoordinatedControllerCore>(
            ControllerId{static_cast<std::uint32_t>(p)}, cfg_.budgets);
        peer->host =
            std::make_unique<SimHost>(eng_, prof_, "peer" + std::to_string(p));
        add_collector(peer->col, p, k, *peer->host);
        peers_.push_back(std::move(peer));
      }
      return;
    }

    if (flat()) {
      root_.col.slot_ordered = true;
      add_collector(root_.col, 0, 1, global_host_);
      if (store_collect_) root_.col.store = &store_;
    } else {
      aggs_.reserve(cfg_.num_aggregators);
      const std::size_t a_count = cfg_.num_aggregators;
      for (std::size_t a = 0; a < a_count; ++a) {
        auto agg = std::make_unique<Node>();
        agg->core = std::make_unique<core::AggregatorCore>(
            core::AggregatorOptions{ControllerId{static_cast<std::uint32_t>(a)},
                                    cfg_.preaggregate,
                                    /*include_digests=*/true,
                                    cfg_.activity_threshold});
        agg->host =
            std::make_unique<SimHost>(eng_, prof_, "agg" + std::to_string(a));
        add_collector(agg->col, a, a_count, *agg->host);
        if (store_collect_) agg->col.store = &agg->core->store();
        aggs_.push_back(std::move(agg));
      }

      // The root's children: the aggregators, or super-aggregators over
      // contiguous runs of them.
      const std::size_t s_count = cfg_.num_super_aggregators;
      supers_.reserve(s_count);
      for (std::size_t s = 0; s < s_count; ++s) {
        auto super = std::make_unique<Node>();
        super->host =
            std::make_unique<SimHost>(eng_, prof_, "super" + std::to_string(s));
        super->col.index = static_cast<std::uint32_t>(s);
        super->col.host = super->host.get();
        for (std::size_t a = s * a_count / s_count;
             a < (s + 1) * a_count / s_count; ++a) {
          adopt(*super, *aggs_[a]);
        }
        adopt(root_, *super);
        supers_.push_back(std::move(super));
      }
      if (s_count == 0) {
        for (auto& agg : aggs_) adopt(root_, *agg);
      }
    }

    // Register every stage with the controllers that manage it.
    for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
      const ControllerId via =
          flat() ? ControllerId::invalid()
                 : ControllerId{static_cast<std::uint32_t>(agg_of(i))};
      const Status added = global_.registry().add(
          {stages_[i].info(), ConnId{i}, via});
      assert(added.is_ok());
      (void)added;
      if (!flat()) {
        const Status agg_added = aggs_[agg_of(i)]->core->registry().add(
            {stages_[i].info(), ConnId{i}, ControllerId::invalid()});
        assert(agg_added.is_ok());
        (void)agg_added;
      }
    }

    // Bind every stage to its collector's columnar store. Binding in
    // ascending stage order makes the slot index equal the stage's
    // position in the collector's block, which the collect closures rely
    // on to skip the id lookup.
    for (Collector* col : collectors_) {
      if (col->store == nullptr) continue;
      col->store->reset(col->slots);
      for (std::size_t i = 0; i < col->slots; ++i) {
        const proto::StageInfo& info = stages_[col->first_stage + i].info();
        const std::uint32_t slot = col->store->bind(info.stage_id, info.job_id);
        assert(slot == static_cast<std::uint32_t>(i));
        (void)slot;
      }
    }
    if (delta_collect_) {
      last_report_.assign(cfg_.num_stages, {});
      has_report_.assign(cfg_.num_stages, 0);
    }
  }

  /// Gives `col` block `index` of `count` contiguous stage blocks and
  /// registers it as the collector of those stages.
  void add_collector(Collector& col, std::size_t index, std::size_t count,
                     SimHost& host) {
    const std::size_t n = cfg_.num_stages;
    col.index = static_cast<std::uint32_t>(index);
    col.host = &host;
    col.first_stage = index * n / count;
    col.slots = (index + 1) * n / count - col.first_stage;
    collectors_.push_back(&col);
  }

  /// Makes `child` the next child of `parent`.
  static void adopt(Node& parent, Node& child) {
    child.parent = &parent;
    child.pos = static_cast<std::uint32_t>(parent.children.size());
    parent.children.push_back(&child);
  }

  [[nodiscard]] std::size_t agg_of(std::size_t stage_index) const {
    // Inverse of the contiguous block partition above.
    const std::size_t n = cfg_.num_stages;
    const std::size_t a_count = cfg_.num_aggregators;
    std::size_t a = stage_index * a_count / n;
    while (a + 1 < a_count && stage_index >= (a + 1) * n / a_count) ++a;
    while (a > 0 && stage_index < a * n / a_count) --a;
    return a;
  }

  // ------------------------------------------------------------------
  // Cycle driver

  /// Non-CPU synchronization wait at a phase boundary.
  void after_sync(Engine::EventFn fn) {
    eng_.schedule_in(prof_.phase_sync_overhead, std::move(fn));
  }

  /// Wire size of one enforce message carrying `rules` (the real
  /// Cheferd payload is larger per rule; see FronteraProfile). Takes the
  /// fields, not a batch, so a one-rule frame is sized without building
  /// a vector.
  [[nodiscard]] std::size_t enforce_frame_size(
      std::uint64_t cycle, std::span<const proto::Rule> rules) const {
    return proto::EnforceBatch::wire_size(cycle, rules) +
           wire::kFrameHeaderSize + rules.size() * prof_.rule_extra_wire_bytes;
  }

  void start_cycle() {
    if (done_) return;
    const proto::CollectRequest req = global_.begin_cycle();
    cycle_ = global_.current_cycle();
    cycle_start_ = eng_.now();
    collect_req_size_ = frame_size(req);
    cycle_in_flight_ = true;
    if (coordinated()) {
      start_cycle_coordinated();
      return;
    }
    after_sync([this] { on_collect_request(root_); });
  }

  /// The event loop: the engine's (time, seq) order plus two rules of
  /// its own. A utilization sample runs before any event at or after its
  /// instant. When the queue drains, the coordinated join (on_idle) runs
  /// before any pending sample.
  void run_events() {
    for (;;) {
      if (sample_pending_) {
        eng_.run_before(sample_at_);
      } else {
        eng_.run();
      }
      if (!eng_.empty()) {
        take_sample();  // stopped at the sample instant
      } else if (!on_idle()) {
        if (!sample_pending_) return;
        take_sample();
      }
    }
  }

  /// Runs on a drained queue: joins a finished coordinated cycle or
  /// launches a deferred coordinated cycle start, fast-forwarding the
  /// idle clock (run_until on an empty queue only moves the clock).
  /// Returns true iff it scheduled new work or finished a cycle.
  bool on_idle() {
    if (!coordinated()) return false;
    if (cycle_in_flight_) {
      finish_cycle_coordinated();
      return true;
    }
    if (next_cycle_pending_ && !done_) {
      next_cycle_pending_ = false;
      eng_.run_until(next_cycle_at_);
      start_cycle();
      return true;
    }
    return false;
  }

  // -- Coordinated flat design (paper §VI future work #1) ----------------
  //
  // Phase accounting: peers pipeline independently, so phase boundaries
  // are taken as the time the LAST peer passes each stage — collect ends
  // when every peer holds all K summaries, compute when every peer has
  // computed, enforce when the last ack lands. Each peer records its own
  // completion instants; no single peer observes the whole cycle, so
  // on_idle joins them once the queue has drained.

  void start_cycle_coordinated() {
    for (auto& peer : peers_) {
      peer->summaries.assign(peers_.size(), {});
      peer->summaries_received = 0;
      peer->exchange_done_at = Nanos{0};
      peer->compute_done_at = Nanos{0};
      peer->enforce_done_at = Nanos{0};
    }
    // All peers leave the synchronization wait at the same instant.
    const Nanos at = eng_.now() + prof_.phase_sync_overhead;
    for (std::uint32_t p = 0; p < peers_.size(); ++p) {
      eng_.schedule_at(at, [this, p] { collect_fanout(p); });
    }
  }

  void peer_broadcast_summary(std::size_t p) {
    Peer& peer = *peers_[p];
    const proto::AggregatedMetrics summary =
        peer.core->summarize(cycle_, peer.col.reports);
    const Nanos cost = scaled(prof_.cpu_agg_merge_per_stage, peer.col.slots);
    const std::size_t sz = frame_size(summary);
    peer.host->run(cost, [this, p, summary, sz] {
      peer_accept_summary(p, p, summary);  // own summary, no wire
      peers_[p]->host->broadcast(peers_.size() - 1, sz, [&](std::size_t i) {
        const std::size_t q = i < p ? i : i + 1;  // skip self
        return [this, q, p, sz, summary] {
          peers_[q]->host->receive(sz, [this, q, p, summary] {
            peer_accept_summary(q, p, summary);
          });
        };
      });
    });
  }

  void peer_accept_summary(std::size_t p, std::size_t src,
                           const proto::AggregatedMetrics& summary) {
    Peer& peer = *peers_[p];
    peer.summaries[src] = summary;
    if (++peer.summaries_received < peers_.size()) return;
    peer.exchange_done_at = eng_.now();
    peer_compute(p);
  }

  void peer_compute(std::size_t p) {
    Peer& peer = *peers_[p];
    // Every peer runs the full global PSFA (the redundancy that buys
    // central-controller-free global visibility), then splits only its
    // own subtree.
    const Nanos cost = scaled(prof_.cpu_psfa_per_job, num_jobs()) +
                       scaled(prof_.cpu_split_per_stage, peer.col.slots);
    peer.host->run(cost, [this, p,
                          rules = peer.core->compute_own_rules(
                              cycle_, peer.summaries, peer.col.reports)] {
      peers_[p]->compute_done_at = eng_.now();
      enforce_rules(peers_[p]->col, rules);
    });
  }

  void peer_enforce_done(std::size_t p) {
    peers_[p]->enforce_done_at = eng_.now();
  }

  /// Joins a finished coordinated cycle on the drained queue: the phase
  /// boundaries are the maxima of the per-peer completion instants,
  /// exactly the "last peer past each stage" definition.
  void finish_cycle_coordinated() {
    Nanos exchange{0};
    Nanos compute{0};
    Nanos enforce{0};
    for (const auto& peer : peers_) {
      exchange = std::max(exchange, peer->exchange_done_at);
      compute = std::max(compute, peer->compute_done_at);
      enforce = std::max(enforce, peer->enforce_done_at);
    }
    collect_end_ = exchange;
    compute_end_ = compute;
    eng_.run_until(enforce);
    finish_cycle();
  }

  // -- Fault-injection helpers -------------------------------------------
  //
  // Callable only when fault_ is set (except stage_latency, which is the
  // healthy constant otherwise). Every injection bumps faults_injected_.
  // They run per stage per message, so up/restart lookups go through the
  // O(1) outage cursors.

  // sdslint: hotpath
  /// Stage can emit/accept messages at `t` (up and not partitioned).
  [[nodiscard]] bool stage_reachable(std::size_t i, Nanos t) {
    if (stage_outages_.up(i, t) && !fault_->partitioned(i, t)) return true;
    ++faults_injected_;
    return false;
  }

  /// Stage-side service latency for one message, with any slow-window
  /// multiplier applied to the CPU share.
  [[nodiscard]] Nanos stage_latency(std::size_t i, Nanos t) {
    Nanos service = prof_.stage_service;
    if (fault_ != nullptr) {
      const double mult = fault_->service_multiplier(i, t);
      if (mult > 1.0) {
        service = Nanos{static_cast<std::int64_t>(
            static_cast<double>(service.count()) * mult)};
        ++faults_injected_;
      }
    }
    return service + prof_.wire_latency;
  }

  /// Apply the per-message fate for a reply/ack/report of `kind` from
  /// `entity` this cycle. Returns false when the message is dropped;
  /// otherwise adjusts `latency` (delay fate) and `copies` (duplicate
  /// fate — the extra copy pays receive cost but is discarded by the
  /// receiver's seen-guard).
  [[nodiscard]] bool reply_fate(fault::MessageKind kind, std::uint64_t entity,
                                Nanos& latency, std::size_t& copies) {
    switch (fault_->message_fate(kind, cycle_, entity)) {
      case fault::MessageFate::kDrop:
        ++faults_injected_;
        return false;
      case fault::MessageFate::kDuplicate:
        ++faults_injected_;
        copies = 2;
        return true;
      case fault::MessageFate::kDelay:
        ++faults_injected_;
        latency = latency + fault_->delay();
        return true;
      case fault::MessageFate::kDeliver:
        return true;
    }
    return true;
  }

  /// Recovery accounting on a fresh (first-this-cycle) collect reply from
  /// stage `i` at `t`: if the stage restarted since its last fresh reply,
  /// the restart-to-now gap is one recovery sample.
  void note_fresh_reply(std::size_t i, Nanos t, std::vector<Nanos>& sink) {
    const Nanos restart = stage_outages_.last_restart_before(i, t);
    if (restart.count() >= 0 && last_fresh_at_[i] < restart) {
      sink.push_back(t - restart);
    }
    last_fresh_at_[i] = t;
  }
  // sdslint: end-hotpath

  /// False when the plan has tree node `node` crashed at this instant.
  /// Fault plans reach only flat and 2-level trees, so a node below the
  /// root is an aggregator; the root does not crash.
  [[nodiscard]] bool node_up(const Node& node) {
    if (fault_ == nullptr || &node == &root_ ||
        agg_outages_.up(node.col.index, eng_.now())) {
      return true;
    }
    ++faults_injected_;
    return false;
  }

  // -- Stage-facing collectors -------------------------------------------
  //
  // The flat global controller, every aggregator and every peer collect
  // from and enforce on their stages through the handlers below; a
  // topology adds only the continuations collect_closed() and
  // enforce_closed().

  /// Frame a stage report for the wire: under delta_collect a stage
  /// that already reported sends the compact delta against its previous
  /// report, refreshed with a full frame every `delta_refresh` cycles
  /// (staggered by stage index).
  StageReply frame_report(std::size_t i, const proto::StageMetrics& m,
                          std::uint32_t collector, std::uint32_t slot) {
    if (!delta_collect_) return {m, collector, slot};
    const StageReply reply =
        has_report_[i] != 0 && (cycle_ + i) % cfg_.delta_refresh != 0
            ? StageReply{proto::StageMetricsDelta::make(
                             last_report_[i], m, /*include_stage_id=*/false),
                         collector, slot}
            : StageReply{m, collector, slot};
    last_report_[i] = m;
    has_report_[i] = 1;
    return reply;
  }

  /// Opens `col`'s collect for the current cycle, expecting `n` replies
  /// or reports. Under a fault plan it also clears the cycle's stale and
  /// recovery accounting and arms the gate. Runs when the collector
  /// itself receives the collect request, not at the top-level fan-out,
  /// so stragglers from the previous cycle are ordered against it in
  /// virtual time.
  void open_collect(Collector& col, std::size_t n) {
    col.collect.expect(n);
    if (fault_ == nullptr) return;
    col.stale = 0;
    col.recoveries.clear();
    arm(col, col.collect);
  }

  // sdslint: hotpath
  // Per-stage collect fan-out, reply and enforcement: every closure here
  // runs once per stage per cycle and rides inline in its engine cell.

  /// At collector `id`, on the collect request: ask each of its stages.
  void collect_fanout(std::uint32_t id) {
    Collector& col = *collectors_[id];
    if (col.store == nullptr) {
      if (col.slot_ordered) {
        col.reports.assign(col.slots, {});
      } else {
        col.reports.clear();
      }
    }
    open_collect(col, col.slots);
    col.host->broadcast(
        col.slots, collect_req_size_, [this, id](std::size_t i) {
          return inline_event([this, id, slot = static_cast<std::uint32_t>(i)] {
            on_stage_collect(id, slot);
          });
        });
  }

  /// At the stage in slot `slot` of collector `id`.
  void on_stage_collect(std::uint32_t id, std::uint32_t slot) {
    const std::size_t i = collectors_[id]->first_stage + slot;
    if (fault_ != nullptr && !stage_reachable(i, eng_.now())) return;
    const proto::StageMetrics m = stages_[i].collect(cycle_, eng_.now());
    const StageReply reply = frame_report(i, m, id, slot);
    Nanos latency = stage_latency(i, eng_.now());
    if (cfg_.tracer != nullptr && i == 0 && flat()) {
      // Representative per-stage span (stage 0 only — one per cycle, not
      // one per stage) so flat traces also show a second component.
      telemetry::Span span;
      span.name = "stage.collect";
      span.category = "component";
      span.track = 1;
      span.cycle = cycle_;
      span.start = eng_.now();
      span.duration = latency;
      span.trace_id = cycle_;
      span.span_id = telemetry::derive_span_id(cycle_, 1, span.name);
      span.parent_span = telemetry::derive_span_id(cycle_, 0, "collect");
      span.phase = telemetry::SpanPhase::kCollect;
      cfg_.tracer->record(std::move(span));
    }
    std::size_t copies = 1;
    if (fault_ != nullptr &&
        !reply_fate(fault::MessageKind::kCollectReply, i, latency, copies)) {
      return;
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      const StageReply sent = copy == 0 ? reply : reply.as_duplicate();
      eng_.schedule_in(latency, inline_event([this, sent] {
        collectors_[sent.collector()]->host->receive(
            sent.wire(), inline_event([this, sent] { on_stage_reply(sent); }));
      }));
    }
  }

  void on_stage_reply(const StageReply& reply) {
    Collector& col = *collectors_[reply.collector()];
    const std::uint32_t slot = reply.slot();
    if (fault_ != nullptr) {
      if (reply.duplicate() || !col.accept(col.collect, reply.cycle(), slot)) {
        return;  // duplicate or post-deadline straggler
      }
      note_fresh_reply(col.first_stage + slot, eng_.now(), col.recoveries);
    }
    // Coordinated mode leaves the collect wire counters empty.
    if (!coordinated()) account_collect_frame(reply);
    if (col.store != nullptr) {
      fold_reply(*col.store, reply);
    } else if (col.slot_ordered) {
      col.reports[slot] = reply.full();
    } else {
      col.reports.push_back(reply.full());
    }
    if (col.collect.arrive()) collect_closed(col, false);
  }

  /// Fold one accepted report into a collector's store at its slot.
  static void fold_reply(core::MetricsStore& store, const StageReply& reply) {
    if (reply.is_delta()) {
      const core::DeltaStatus status =
          store.apply_delta(reply.delta(), reply.slot());
      assert(status == core::DeltaStatus::kApplied);
      (void)status;
    } else {
      store.update_at(reply.slot(), reply.full());
    }
  }

  /// Wire accounting for one accepted collect report.
  void account_collect_frame(const StageReply& reply) {
    collect_wire_bytes_ += reply.wire();
    collect_wire_bytes_full_ += reply.wire_full();
    if (reply.is_delta()) {
      ++collect_frames_delta_;
    } else {
      ++collect_frames_full_;
    }
  }

  /// Sends each rule to its stage in a message of its own; the acks
  /// count down `col`'s enforce gate.
  void enforce_rules(Collector& col, std::span<const proto::Rule> rules) {
    col.enforce.expect(rules.size());
    col.acks_applied = 0;
    col.rule_applied_max = Nanos{-1};
    if (rules.empty()) {
      enforce_closed(col, false);
      return;
    }
    if (fault_ != nullptr) arm(col, col.enforce);
    const std::uint32_t id = col.index;
    for (const proto::Rule& rule : rules) {
      col.host->send(
          enforce_frame_size(cycle_, {&rule, 1}),
          inline_event([this, id, rule, c = cycle_] {
            apply_rule_and_ack(rule, id, c);
          }),
          prof_.cpu_route_per_rule);
    }
  }

  /// At the stage: apply `rule` (real logic), then send the ack back to
  /// collector `id`, which counts it after its receive cost (on_stage_ack,
  /// with the virtual instant the stage applied the rule, for
  /// `disseminate` attribution). Under a fault plan a down/partitioned
  /// stage neither applies nor acks, and the ack is subject to the
  /// kEnforceAck message fate — silent stages surface as missing acks and
  /// the phase deadline closes the cycle degraded.
  void apply_rule_and_ack(const proto::Rule& rule, std::uint32_t id,
                          std::uint64_t c) {
    const std::size_t idx = rule.stage_id.value();
    assert(idx < stages_.size());
    if (fault_ != nullptr && !stage_reachable(idx, eng_.now())) return;
    stages_[idx].apply(rule);
    const Nanos applied_at = eng_.now();
    proto::EnforceAck ack;
    ack.cycle_id = cycle_;
    ack.applied = 1;
    const std::size_t sz = frame_size(ack);
    Nanos latency = stage_latency(idx, eng_.now());
    std::size_t copies = 1;
    if (fault_ != nullptr &&
        !reply_fate(fault::MessageKind::kEnforceAck, idx, latency, copies)) {
      return;
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      const bool first = copy == 0;
      eng_.schedule_in(latency, inline_event([this, id, c, sz, first,
                                              applied_at] {
        collectors_[id]->host->receive(
            sz, inline_event([this, id, c, first, applied_at] {
              // The duplicate copy pays receive cost but is deduplicated.
              if (first) on_stage_ack(id, c, applied_at);
            }));
      }));
    }
  }

  void on_stage_ack(std::uint32_t id, std::uint64_t c, Nanos applied_at) {
    Collector& col = *collectors_[id];
    if (fault_ != nullptr && !col.admits(col.enforce, c)) {
      return;  // ack after the deadline closed
    }
    col.rule_applied_max = std::max(col.rule_applied_max, applied_at);
    ++col.acks_applied;
    if (col.enforce.arrive()) enforce_closed(col, false);
  }
  // sdslint: end-hotpath

  // -- Phase gates --------------------------------------------------------

  /// Arms `gate` of `col` for the current cycle and starts its deadline.
  void arm(Collector& col, PhaseGate& gate) {
    gate.open = true;
    gate.extensions = 0;
    gate.seen.assign(gate.expected, 0);
    col.armed_cycle = cycle_;
    schedule_deadline(col, gate, cycle_);
  }

  void schedule_deadline(Collector& col, PhaseGate& gate, std::uint64_t c) {
    eng_.schedule_in(fault_->phase_timeout(),
                     [this, col = &col, gate = &gate, c] {
                       on_deadline(*col, *gate, c);
                     });
  }

  /// A phase deadline of cycle `c`: extends the gate while it lacks
  /// quorum and has extensions left, else closes it on what arrived.
  void on_deadline(Collector& col, PhaseGate& gate, std::uint64_t c) {
    if (!col.admits(gate, c)) return;
    if (gate.expected - gate.pending < fault_->quorum_count(gate.expected) &&
        gate.extensions++ < fault_->max_deadline_extensions()) {
      schedule_deadline(col, gate, c);
      return;
    }
    gate.open = false;
    close_gate(col, gate, gate.pending > 0);
  }

  /// Runs the continuation of `col`'s closed `gate`.
  void close_gate(Collector& col, const PhaseGate& gate, bool degraded) {
    if (&gate == &col.collect) {
      collect_closed(col, degraded);
    } else {
      enforce_closed(col, degraded);
    }
  }

  // -- Per-topology continuations -------------------------------------------

  /// `col`'s collect closed: every reply or report is in, or the deadline
  /// closed it `degraded` with some outstanding. A peer moves on to its
  /// summary exchange, a node below the root reports up, and the global
  /// controller computes.
  void collect_closed(Collector& col, bool degraded) {
    Node* node = col.node;
    if (degraded) {
      col.stale += col.slots > 0 ? col.collect.pending : silent_stages(*node);
    }
    if (node == nullptr) {
      peer_broadcast_summary(col.index);
      return;
    }
    if (node != &root_) {
      report_up(*node);
      return;
    }
    if (degraded) cycle_degraded_ = true;
    collect_end_ = eng_.now();
    if (flat()) {
      compute_flat();
    } else {
      compute_hier();
    }
  }

  /// Stages under the children whose report `node`'s collect gate never
  /// admitted this cycle. Gates close degraded only under a fault plan,
  /// so on a 2-level tree, whose children are aggregators.
  [[nodiscard]] static std::size_t silent_stages(const Node& node) {
    std::size_t stale = 0;
    for (const Node* child : node.children) {
      if (node.col.collect.seen[child->pos] == 0) stale += child->col.slots;
    }
    return stale;
  }

  /// `col`'s enforce closed: every ack is in, or the deadline closed it
  /// `degraded` with acks outstanding. A peer records its enforce
  /// instant, a node below the root sends its merged ack (applied <
  /// expected marks the cycle degraded at the root), and the global
  /// controller finishes the cycle.
  void enforce_closed(Collector& col, bool degraded) {
    Node* node = col.node;
    if (node == nullptr) {
      peer_enforce_done(col.index);
      return;
    }
    if (node != &root_) {
      ack_up(*node);
      return;
    }
    if (degraded) cycle_degraded_ = true;
    finish_cycle();
  }

  // -- Flat design -----------------------------------------------------

  void compute_flat() {
    std::size_t received = cfg_.num_stages;
    if (root_.col.store != nullptr) {
      // Incremental path: only jobs whose stages moved are re-summed and
      // re-split; the returned result is persistent and bit-identical to
      // the batch compute over the same rows.
      compute_view_ =
          &global_.compute_from_store(store_, cfg_.psfa_full_recompute);
    } else {
      // Batch path (fault plan): the slot-ordered reports, compacted to
      // the ones that arrived when the cycle is degraded —
      // default-constructed rows for silent stages would corrupt the
      // PSFA input.
      std::span<const proto::StageMetrics> rows = root_.col.reports;
      if (root_.col.collect.pending > 0) {
        flat_scratch_.clear();
        for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
          if (root_.col.collect.seen[i] != 0) {
            flat_scratch_.push_back(root_.col.reports[i]);
          }
        }
        rows = flat_scratch_;
        received = flat_scratch_.size();
      }
      compute_result_ = global_.compute(rows);
      compute_view_ = &compute_result_;
    }
    const Nanos cost = scaled(prof_.cpu_merge_per_stage, received) +
                       scaled(prof_.cpu_psfa_per_job, num_jobs()) +
                       scaled(prof_.cpu_split_per_stage, cfg_.num_stages);
    after_sync([this, cost] {
      global_host_.run(cost, [this] {
        compute_end_ = eng_.now();
        after_sync([this] { enforce_rules(root_.col, compute_view_->rules); });
      });
    });
  }

  // -- Controller tree (hierarchical designs) ---------------------------
  //
  // Collect requests and decisions travel down the tree of Nodes, reports
  // and merged acks travel up, and one handler per direction serves every
  // tier. Fault plans reach only 2-level trees (validate()).

  /// At `node`, on the collect request (at the root: the cycle's start).
  /// A stage-facing node asks its stages; any other node clears its
  /// report slots and asks its children.
  void on_collect_request(Node& node) {
    if (node.children.empty()) {
      // A crashed aggregator's subtree stays silent this cycle; its
      // parent's report deadline counts the subtree stale.
      if (node_up(node)) collect_fanout(node.col.index);
      return;
    }
    if (cfg_.preaggregate) {
      node.child_reports.assign(node.children.size(), {});
    } else {
      passthrough_batches_.assign(node.children.size(), {});
    }
    node.child_close_max = Nanos{-1};
    open_collect(node.col, node.children.size());
    fan_out(node, &Run::send_collect);
  }

  /// Sends the first messages of a fan-out from `node` with `send`: one
  /// to every child, or under serial fan-out one to the first child;
  /// count_answer() sends the next as each answer arrives.
  void fan_out(Node& node, void (Run::*send)(Node&, std::size_t)) {
    const std::size_t n = cfg_.parallel_fanout ? node.children.size() : 1;
    for (std::size_t i = 0; i < n; ++i) (this->*send)(node, i);
  }

  /// From `node`: the collect request to child `i`.
  void send_collect(Node& node, std::size_t i) {
    Node* child = node.children[i];
    node.col.host->send(collect_req_size_, [this, child] {
      child->col.host->receive(collect_req_size_,
                               [this, child] { on_collect_request(*child); });
    });
  }

  /// Counts `child`'s report or merged ack at its parent's `gate`: the
  /// last one closes the gate; under serial fan-out any other sends the
  /// next child its message.
  void count_answer(const Node& child, PhaseGate& gate,
                    void (Run::*send)(Node&, std::size_t)) {
    Node& parent = *child.parent;
    if (gate.arrive()) {
      close_gate(parent.col, gate, false);
    } else if (!cfg_.parallel_fanout &&
               child.pos + 1 < parent.children.size()) {
      (this->*send)(parent, child.pos + 1);
    }
  }

  /// Sends `node`'s report or merged ack (`kind`, `sz` bytes) to its
  /// parent, where `on_arrival` runs after the receive cost, once, if the
  /// parent's collect (report) or enforce (ack) gate admits it. Under a
  /// fault plan a crashed aggregator's message is lost, and the message
  /// takes its fate: dropped, duplicated (the copy pays its receive cost
  /// and is discarded) or delayed.
  template <typename F>
  void send_up(Node& node, fault::MessageKind kind, std::size_t sz,
               const F& on_arrival) {
    Nanos extra{0};
    std::size_t copies = 1;
    if (fault_ != nullptr &&
        (!node_up(node) || !reply_fate(kind, node.col.index, extra, copies))) {
      return;
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      node.col.host->send(sz, [this, n = &node, kind, first = copy == 0, sz,
                               extra, c = cycle_, on_arrival] {
        auto deliver = [this, n, kind, first, c, on_arrival] {
          Collector& parent = n->parent->col;
          PhaseGate& gate = kind == fault::MessageKind::kAggregatorReport
                                ? parent.collect
                                : parent.enforce;
          if (!first ||
              (fault_ != nullptr && !parent.accept(gate, c, n->pos))) {
            return;  // duplicate or post-deadline straggler
          }
          on_arrival();
        };
        SimHost* to = n->parent->col.host;
        if (extra > Nanos{0}) {
          eng_.schedule_in(extra, [to, sz, deliver = std::move(deliver)] {
            to->receive(sz, deliver);
          });
        } else {
          to->receive(sz, std::move(deliver));
        }
      });
    }
  }

  /// What a node sends up when its collect closes.
  struct Report {
    /// Pre-aggregating trees: the job summary of the node's subtree.
    proto::AggregatedMetrics summary;
    /// Pass-through: the aggregator's raw stage reports.
    std::vector<proto::StageMetrics> entries;
    /// Latest aggregator collect-close in the subtree.
    Nanos close{-1};
    /// The subtree's silent stages and recovery samples (fault plans).
    std::size_t stale = 0;
    std::vector<Nanos> recovered;
  };

  /// `node`'s collect closed: an aggregator summarizes or relays its
  /// stages' reports, a super-aggregator merges its children's summaries,
  /// and after that CPU work the report goes up.
  void report_up(Node& node) {
    auto report = std::make_shared<Report>();
    Nanos cost{0};
    std::size_t sz = 0;
    if (node.core == nullptr) {
      report->summary = merge_children(node);
      report->close = node.child_close_max;
      cost = scaled(prof_.cpu_relay_per_stage, report->summary.digests.size());
      sz = frame_size(report->summary);
    } else {
      report->close = eng_.now();
      trace_agg_collect(node.col.index, report->close);
      const std::size_t n_a = node.col.slots;
      if (cfg_.preaggregate) {
        // Store path: incremental slot-ordered summary (only dirty jobs
        // re-summed); batch path: full arrival-ordered merge.
        report->summary = node.col.store != nullptr
                              ? node.core->aggregate_from_store(cycle_)
                              : node.core->aggregate(cycle_, node.col.reports);
        cost = scaled(prof_.cpu_agg_merge_per_stage, n_a);
        sz = frame_size(report->summary);
      } else {
        proto::MetricsBatch batch =
            node.core->passthrough(cycle_, node.col.reports);
        cost = scaled(prof_.cpu_relay_per_stage, n_a);
        sz = frame_size(batch);
        report->entries = std::move(batch.entries);
      }
    }
    // Degraded-subtree accounting travels inside the report.
    report->stale = node.col.stale;
    report->recovered.swap(node.col.recoveries);
    node.col.host->run(cost, [this, n = &node, sz, report = std::move(report)] {
      send_up(*n, fault::MessageKind::kAggregatorReport, sz,
              [this, n, report] { on_child_report(*n, *report); });
    });
  }

  /// At `child`'s parent: stores the child's report in its slot, folds
  /// its close instant and stale accounting, and counts it.
  void on_child_report(const Node& child, Report& report) {
    Node& parent = *child.parent;
    parent.col.stale += report.stale;
    if (report.stale > 0) cycle_degraded_ = true;
    parent.col.recoveries.insert(parent.col.recoveries.end(),
                                 report.recovered.begin(),
                                 report.recovered.end());
    parent.child_close_max = std::max(parent.child_close_max, report.close);
    if (cfg_.preaggregate) {
      parent.child_reports[child.pos] = std::move(report.summary);
    } else {
      passthrough_batches_[child.pos] = std::move(report.entries);
    }
    count_answer(child, parent.col.collect, &Run::send_collect);
  }

  /// A super-aggregator's summary: its children's job rows merged and
  /// their digests concatenated, so the global controller keeps
  /// per-stage visibility. The merge runs in child order whatever the
  /// arrival order.
  [[nodiscard]] proto::AggregatedMetrics merge_children(
      const Node& node) const {
    proto::AggregatedMetrics merged;
    merged.cycle_id = cycle_;
    merged.from = ControllerId{0x40000000u + node.col.index};  // super-tier ids
    std::unordered_map<JobId, std::size_t> index;
    std::size_t digest_count = 0;
    for (const auto& child : node.child_reports) {
      merged.total_stages += child.total_stages;
      digest_count += child.digests.size();
      for (const auto& job : child.jobs) {
        const auto [it, inserted] = index.try_emplace(job.job_id, merged.jobs.size());
        if (inserted) {
          merged.jobs.push_back(job);
        } else {
          auto& row = merged.jobs[it->second];
          row.data_iops += job.data_iops;
          row.meta_iops += job.meta_iops;
          row.stage_count += job.stage_count;
        }
      }
    }
    merged.digests.reserve(digest_count);
    for (const auto& child : node.child_reports) {
      merged.digests.insert(merged.digests.end(), child.digests.begin(),
                            child.digests.end());
    }
    return merged;
  }

  /// Aggregator `a`'s local collect, from the cycle start to `close`.
  void trace_agg_collect(std::uint32_t a, Nanos close) {
    if (cfg_.tracer == nullptr) return;
    telemetry::Span span;
    span.name = "agg.collect";
    span.category = "component";
    span.track = 1 + a;
    span.cycle = cycle_;
    span.start = cycle_start_;
    span.duration = close - cycle_start_;
    span.trace_id = cycle_;
    span.span_id = telemetry::derive_span_id(cycle_, span.track, span.name);
    span.parent_span = telemetry::derive_span_id(cycle_, 0, "collect");
    span.phase = telemetry::SpanPhase::kCollect;
    cfg_.tracer->record(std::move(span));
  }

  void compute_hier() {
    Nanos cost = scaled(prof_.cpu_psfa_per_job, num_jobs());
    if (cfg_.local_decisions) {
      // Global only recomputes per-aggregator budget leases.
      leases_ = global_.lease_budgets(
          root_.child_reports,
          static_cast<std::uint64_t>((eng_.now() + seconds(10)).count()));
    } else if (cfg_.preaggregate) {
      compute_result_ = global_.compute(
          std::span<const proto::AggregatedMetrics>(root_.child_reports));
      cost = cost + scaled(prof_.cpu_split_per_stage, cfg_.num_stages);
    } else {
      // Concatenate the per-aggregator batches in aggregator-id order —
      // canonical input regardless of which batch arrived last.
      passthrough_metrics_.clear();
      for (const auto& entries : passthrough_batches_) {
        passthrough_metrics_.insert(passthrough_metrics_.end(),
                                    entries.begin(), entries.end());
      }
      compute_result_ = global_.compute(std::span<const proto::StageMetrics>(
          passthrough_metrics_.data(), passthrough_metrics_.size()));
      cost = cost + scaled(prof_.cpu_merge_per_stage, cfg_.num_stages) +
             scaled(prof_.cpu_split_per_stage, cfg_.num_stages);
    }
    after_sync([this, cost] {
      global_host_.run(cost, [this] {
        compute_end_ = eng_.now();
        after_sync([this] { enforce_tree(); });
      });
    });
  }

  /// At the root, after its compute: every aggregator's rules, and every
  /// super-aggregator's as its children's in child order; then each
  /// child its share of the decision.
  void enforce_tree() {
    if (!cfg_.local_decisions) {
      for (auto& agg : aggs_) agg->batch = {};
      for (auto& [via, batch] : global_.group_rules(compute_result_)) {
        if (!via.valid()) continue;  // no directly-attached stages here
        aggs_[via.value()]->batch = std::move(batch);
      }
      for (auto& super : supers_) {
        super->batch.cycle_id = cycle_;
        super->batch.rules.clear();
        for (const Node* child : super->children) {
          super->batch.rules.insert(super->batch.rules.end(),
                                    child->batch.rules.begin(),
                                    child->batch.rules.end());
        }
      }
    }
    enforce_children(root_);
  }

  /// At a node above the aggregators: sends each child its share of the
  /// decision; their merged acks count down the enforce gate.
  void enforce_children(Node& node) {
    Collector& col = node.col;
    col.enforce.expect(node.children.size());
    col.acks_applied = 0;
    col.rule_applied_max = Nanos{-1};
    if (fault_ != nullptr) arm(col, col.enforce);
    fan_out(node, &Run::send_decision);
  }

  /// From `node`: child `i`'s share of the decision, its budget lease
  /// (local decisions) or the rules of its subtree.
  void send_decision(Node& node, std::size_t i) {
    Node* child = node.children[i];
    if (cfg_.local_decisions) {
      const proto::BudgetLease lease = leases_[i];
      const std::size_t sz = frame_size(lease);
      node.col.host->send(sz, [this, child, lease, sz] {
        child->col.host->receive(
            sz, [this, child, lease] { decide_locally(*child, lease); });
      });
      return;
    }
    const proto::EnforceBatch& batch = child->batch;
    const std::size_t sz = enforce_frame_size(batch.cycle_id, batch.rules);
    node.col.host->send(
        sz,
        [this, child, sz] {
          // A crashed aggregator loses its subtree's rules; the ack
          // deadline closes the cycle degraded.
          if (!node_up(*child)) return;
          child->col.host->receive(sz, [this, child] { on_rules(*child); });
        },
        scaled(prof_.cpu_route_per_rule, batch.rules.size()));
  }

  /// At `node`, on its subtree's rules: an aggregator enforces its own
  /// on its stages, a super-aggregator passes each child its share.
  void on_rules(Node& node) {
    if (node.core == nullptr) {
      enforce_children(node);
    } else {
      enforce_rules(node.col, node.core->route(node.batch).owned);
    }
  }

  /// Local decisions, at aggregator `agg` on its lease: PSFA over its own
  /// stages' reports within the lease, then enforcement.
  void decide_locally(Node& agg, const proto::BudgetLease& lease) {
    agg.core->set_lease(lease);
    const auto rules = agg.core->local_compute(
        cycle_, agg.col.reports,
        static_cast<std::uint64_t>(eng_.now().count()));
    const Nanos cost =
        scaled(prof_.cpu_psfa_per_job, std::max<std::size_t>(1, num_jobs() / aggs_.size())) +
        scaled(prof_.cpu_split_per_stage, agg.col.slots);
    agg.col.host->run(
        cost, [this, n = &agg, rules] { enforce_rules(n->col, rules); });
  }

  /// `node`'s enforce closed: its merged ack goes up. Under a fault plan,
  /// acks short of the rules sent mark the cycle degraded at the root.
  void ack_up(Node& node) {
    const Collector& col = node.col;
    proto::EnforceAck merged;
    merged.cycle_id = cycle_;
    merged.applied = col.acks_applied;
    const bool short_acked = fault_ != nullptr && col.enforce.expected > 0 &&
                             col.acks_applied < col.enforce.expected;
    send_up(node, fault::MessageKind::kAggregatorAck, frame_size(merged),
            [this, n = &node, applied = merged.applied, short_acked,
             applied_max = col.rule_applied_max] {
              Collector& parent = n->parent->col;
              if (short_acked) cycle_degraded_ = true;
              parent.acks_applied += applied;
              parent.rule_applied_max =
                  std::max(parent.rule_applied_max, applied_max);
              count_answer(*n, parent.enforce, &Run::send_decision);
            });
  }

  // ------------------------------------------------------------------

  void finish_cycle() {
    core::PhaseBreakdown breakdown;
    breakdown.collect = collect_end_ - cycle_start_;
    breakdown.compute = compute_end_ - collect_end_;
    breakdown.enforce = eng_.now() - compute_end_;
    // Attributed sub-segments (see CycleStats): `aggregate` is the tail
    // of collect after the last aggregator closed its local sub-collect,
    // `disseminate` the head of enforce until the last stage applied a
    // rule. Nanos{-1} = no boundary observed → sub-segment stays 0.
    const Collector& top = root_.col;
    if (root_.child_close_max >= Nanos{0}) {
      breakdown.aggregate = std::clamp(collect_end_ - root_.child_close_max,
                                       Nanos{0}, breakdown.collect);
    }
    if (top.rule_applied_max >= Nanos{0}) {
      breakdown.disseminate = std::clamp(top.rule_applied_max - compute_end_,
                                         Nanos{0}, breakdown.enforce);
    }
    // The global controller's collector gathered the cycle's stale and
    // recovery accounting (its own stages', or its aggregators'); the
    // next cycle's open_collect() clears it.
    stats_.record(cycle_, breakdown,
                  fault_ != nullptr && (cycle_degraded_ || top.stale > 0),
                  top.stale);
    if (fault_ != nullptr) {
      if (cycle_degraded_ || top.stale > 0) {
        stats_.record_degraded(top.stale);
      }
      for (const Nanos r : top.recoveries) stats_.record_recovery(r);
      cycle_degraded_ = false;
    }
    last_cycle_end_ = eng_.now();
    trace_cycle(breakdown);
    cycle_in_flight_ = false;

    const bool hit_cycle_cap =
        cfg_.max_cycles != 0 && stats_.cycles() >= cfg_.max_cycles;
    if (hit_cycle_cap || eng_.now() >= cfg_.duration) {
      done_ = true;
      return;
    }
    if (cfg_.cycle_period > Nanos{0}) {
      const Nanos next = cycle_start_ + cfg_.cycle_period;
      if (next > eng_.now()) {
        if (coordinated()) {
          // Deferred: on_idle fast-forwards the drained clock to `next`
          // and starts the cycle there.
          next_cycle_pending_ = true;
          next_cycle_at_ = next;
        } else {
          eng_.schedule_at(next, [this] { start_cycle(); });
        }
        return;
      }
    }
    start_cycle();  // stress workload: no idle gap between cycles
  }

  /// One span per phase plus an enclosing cycle span, in virtual time on
  /// the global controller's track. Phase boundaries are exactly the
  /// instants CycleStats measured, so the trace and the histograms agree.
  /// Span ids derive from (cycle, track, name) and nest causally:
  /// cycle → {collect → aggregate, compute, enforce → disseminate}. The
  /// same spans land in the flight recorder ring when one is attached.
  void trace_cycle(const core::PhaseBreakdown& breakdown) {
    if (cfg_.tracer == nullptr && cfg_.flight == nullptr) return;
    const std::uint64_t trace = cycle_;
    const auto root_id = telemetry::derive_span_id(trace, 0, "cycle");
    const auto collect_id = telemetry::derive_span_id(trace, 0, "collect");
    const auto enforce_id = telemetry::derive_span_id(trace, 0, "enforce");
    const auto make = [&](const char* name, telemetry::SpanPhase phase,
                          std::uint64_t parent, Nanos start, Nanos duration) {
      telemetry::Span span;
      span.name = name;
      span.category = "cycle";
      span.track = 0;
      span.cycle = cycle_;
      span.start = start;
      span.duration = duration;
      span.trace_id = trace;
      span.span_id = telemetry::derive_span_id(trace, 0, name);
      span.parent_span = parent;
      span.phase = phase;
      return span;
    };
    const auto emit = [&](telemetry::Span span) {
      if (cfg_.flight != nullptr) cfg_.flight->record(span);
      if (cfg_.tracer != nullptr) cfg_.tracer->record(std::move(span));
    };
    telemetry::Span cycle_span =
        make("cycle", telemetry::SpanPhase::kNone, 0, cycle_start_,
             eng_.now() - cycle_start_);
    cycle_span.detail = "stages=" + std::to_string(cfg_.num_stages);
    emit(std::move(cycle_span));
    emit(make("collect", telemetry::SpanPhase::kCollect, root_id, cycle_start_,
              breakdown.collect));
    emit(make("aggregate", telemetry::SpanPhase::kAggregate, collect_id,
              collect_end_ - breakdown.aggregate, breakdown.aggregate));
    emit(make("compute", telemetry::SpanPhase::kCompute, root_id, collect_end_,
              breakdown.compute));
    emit(make("disseminate", telemetry::SpanPhase::kDisseminate, enforce_id,
              compute_end_, breakdown.disseminate));
    emit(make("enforce", telemetry::SpanPhase::kEnforce, root_id, compute_end_,
              breakdown.enforce));
  }

  /// Sample the PFS load factor on a fixed simulated-time grid,
  /// independent of cycle boundaries (sampling only at enforcement
  /// instants would alias: limits are freshest exactly then). A sample
  /// is not an engine event: run_events() takes it at its instant,
  /// before any event at or after that instant, and stops sampling once
  /// the run is done.
  void take_sample() {
    sample_pending_ = false;
    if (done_) return;
    sample_utilization(sample_at_);
    sample_at_ += cfg_.utilization_sample_interval;
    sample_pending_ = true;
  }

  /// PFS load factor: what each stage would submit at `now` (its demand
  /// clipped by its enforced limit), summed, relative to the budget.
  void sample_utilization(Nanos now) {
    double data = 0;
    double meta = 0;
    for (const auto& stage : stages_) {
      const double dd = stage.demand(stage::Dimension::kData, now);
      const double dl = stage.limit(stage::Dimension::kData);
      data += dl < 0 ? dd : std::min(dd, dl);
      const double md = stage.demand(stage::Dimension::kMeta, now);
      const double ml = stage.limit(stage::Dimension::kMeta);
      meta += ml < 0 ? md : std::min(md, ml);
    }
    if (cfg_.budgets.data_iops > 0) {
      data_utilization_.add(data / cfg_.budgets.data_iops);
    }
    if (cfg_.budgets.meta_iops > 0) {
      meta_utilization_.add(meta / cfg_.budgets.meta_iops);
    }
  }

  ExperimentResult finalize() {
    ExperimentResult result;
    result.stats = stats_;
    result.cycles = stats_.cycles();
    result.elapsed = last_cycle_end_;
    result.events_executed = eng_.executed();
    if (events_gauge_ != nullptr) {
      events_gauge_->set(static_cast<double>(eng_.executed()));
      vtime_gauge_->set(to_seconds(eng_.now()));
    }
    result.mean_data_utilization = data_utilization_.mean();
    result.mean_meta_utilization = meta_utilization_.mean();
    result.collect_wire_bytes = collect_wire_bytes_;
    result.collect_wire_bytes_full = collect_wire_bytes_full_;
    result.collect_frames_full = collect_frames_full_;
    result.collect_frames_delta = collect_frames_delta_;
    result.collect_pipeline =
        store_collect_ ? CollectPipeline::kStore : CollectPipeline::kBatch;
    result.delta_collect = delta_collect_;
    result.collect_fallback_reason = collect_fallback_reason_;
    if (fault_ != nullptr) {
      result.degraded_cycles = stats_.degraded_cycles();
      result.stale_stage_reports = stats_.stale_stages();
      result.mean_recovery_ms = stats_.mean_recovery_ms();
      result.faults_injected = faults_injected_;
      if (cfg_.metrics != nullptr) {
        telemetry::Labels labels{{"component", "sim"}};
        if (!cfg_.telemetry_label.empty()) {
          labels.emplace_back("configuration", cfg_.telemetry_label);
        }
        cfg_.metrics->counter("sds_fault_injected_total", labels)
            ->add(faults_injected_);
      }
    }
    result.final_data_limits.reserve(stages_.size());
    result.final_meta_limits.reserve(stages_.size());
    for (const auto& stage : stages_) {
      const double dl = stage.limit(stage::Dimension::kData);
      const double ml = stage.limit(stage::Dimension::kMeta);
      result.final_data_limits.push_back(dl);
      result.final_meta_limits.push_back(ml);
      if (dl >= 0) result.final_data_limit_sum += dl;
      if (ml >= 0) result.final_meta_limit_sum += ml;
    }

    const double elapsed_s = std::max(to_seconds(last_cycle_end_), 1e-9);
    const auto usage = [&](const SimHost& host, double mem_bytes,
                           double cpu_scale) {
      ControllerUsage u;
      u.cpu_percent =
          to_seconds(host.busy()) / elapsed_s * cpu_scale;
      u.memory_gb = mem_bytes / 1e9;
      u.transmitted_mbps =
          static_cast<double>(host.bytes_tx()) / elapsed_s / 1e6;
      u.received_mbps = static_cast<double>(host.bytes_rx()) / elapsed_s / 1e6;
      return u;
    };

    const double n = static_cast<double>(cfg_.num_stages);
    if (coordinated()) {
      // Each peer looks like a small flat controller plus K-1 peer links.
      const double k = static_cast<double>(peers_.size());
      const auto peer_mem = [&](const Peer& peer) {
        return prof_.mem_base_bytes +
               static_cast<double>(peer.col.slots) *
                   (prof_.mem_per_conn_bytes + prof_.mem_per_stage_state_bytes) +
               (k - 1) * prof_.mem_per_conn_bytes;
      };
      result.global =
          usage(*peers_[0]->host, peer_mem(*peers_[0]), prof_.cpu_percent_scale);
      ControllerUsage sum;
      for (const auto& peer : peers_) {
        const ControllerUsage u =
            usage(*peer->host, peer_mem(*peer), prof_.cpu_percent_scale);
        sum.cpu_percent += u.cpu_percent;
        sum.memory_gb += u.memory_gb;
        sum.transmitted_mbps += u.transmitted_mbps;
        sum.received_mbps += u.received_mbps;
      }
      result.aggregator = {sum.cpu_percent / k, sum.memory_gb / k,
                           sum.transmitted_mbps / k, sum.received_mbps / k};
      return result;
    }
    if (flat()) {
      const double mem = prof_.mem_base_bytes +
                         n * (prof_.mem_per_conn_bytes +
                              prof_.mem_per_stage_state_bytes);
      result.global = usage(global_host_, mem, prof_.cpu_percent_scale);
    } else {
      const double mem =
          prof_.mem_base_bytes +
          static_cast<double>(aggs_.size()) * prof_.mem_per_conn_bytes +
          n * (prof_.mem_per_stage_state_bytes + prof_.mem_per_stage_hier_bytes);
      result.global = usage(global_host_, mem, prof_.cpu_percent_scale);

      ControllerUsage sum;
      for (const auto& agg : aggs_) {
        const double agg_mem =
            prof_.mem_agg_base_bytes +
            static_cast<double>(agg->col.slots) *
                prof_.mem_agg_per_stage_bytes;
        const ControllerUsage u =
            usage(*agg->host, agg_mem, prof_.agg_cpu_percent_scale);
        sum.cpu_percent += u.cpu_percent;
        sum.memory_gb += u.memory_gb;
        sum.transmitted_mbps += u.transmitted_mbps;
        sum.received_mbps += u.received_mbps;
      }
      const double a = static_cast<double>(aggs_.size());
      result.aggregator = {sum.cpu_percent / a, sum.memory_gb / a,
                           sum.transmitted_mbps / a, sum.received_mbps / a};

      if (!supers_.empty()) {
        ControllerUsage ssum;
        for (const auto& super : supers_) {
          const double super_mem =
              prof_.mem_agg_base_bytes +
              static_cast<double>(super->children.size()) *
                  prof_.mem_per_conn_bytes;
          const ControllerUsage u =
              usage(*super->host, super_mem, prof_.agg_cpu_percent_scale);
          ssum.cpu_percent += u.cpu_percent;
          ssum.memory_gb += u.memory_gb;
          ssum.transmitted_mbps += u.transmitted_mbps;
          ssum.received_mbps += u.received_mbps;
        }
        const double s = static_cast<double>(supers_.size());
        result.super_aggregator = {ssum.cpu_percent / s, ssum.memory_gb / s,
                                   ssum.transmitted_mbps / s,
                                   ssum.received_mbps / s};
      }
    }
    return result;
  }

  // ------------------------------------------------------------------

  struct Peer {
    Collector col;
    std::unique_ptr<core::CoordinatedControllerCore> core;
    std::unique_ptr<SimHost> host;
    /// All-to-all exchange buffer, indexed by source peer — every peer
    /// feeds PSFA the same input regardless of arrival order.
    std::vector<proto::AggregatedMetrics> summaries;
    std::size_t summaries_received = 0;
    /// Per-peer phase completion instants, joined by on_idle() into the
    /// cycle's phase boundaries.
    Nanos exchange_done_at{0};
    Nanos compute_done_at{0};
    Nanos enforce_done_at{0};
  };

  const ExperimentConfig& cfg_;
  const FronteraProfile& prof_;
  Engine eng_;
  SimHost global_host_;
  core::GlobalControllerCore global_;
  /// The global controller: stage-facing in the flat design
  /// (collectors_[0]), the root of the controller tree in a hierarchy.
  Node root_;
  /// Every stage-facing collector, indexed by Collector::index: the flat
  /// global controller, the aggregators or the peers.
  std::vector<Collector*> collectors_;
  /// Columnar store backing the flat collect path (hierarchical runs use
  /// each AggregatorCore's own store instead).
  core::MetricsStore store_;
  /// Store path taken by this run (resolved from the mode in execute()).
  bool store_collect_ = false;
  bool delta_collect_ = false;
  /// Why the mode takes the batch path (empty on the store path).
  std::string collect_fallback_reason_;
  std::vector<std::unique_ptr<Node>> aggs_;
  std::vector<std::unique_ptr<Node>> supers_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<stage::VirtualStage> stages_;

  // Per-cycle state.
  std::uint64_t cycle_ = 0;
  Nanos cycle_start_{0};
  Nanos collect_end_{0};
  Nanos compute_end_{0};
  Nanos last_cycle_end_{0};
  std::size_t collect_req_size_ = 0;
  std::vector<proto::StageMetrics> passthrough_metrics_;
  /// Aggregator-id-indexed passthrough batches, concatenated in id
  /// order at compute time.
  std::vector<std::vector<proto::StageMetrics>> passthrough_batches_;
  /// Local decisions: the cycle's lease per aggregator.
  std::vector<proto::BudgetLease> leases_;
  core::ComputeResult compute_result_;
  /// What the flat design enforces: &compute_result_ on the batch
  /// paths, GlobalControllerCore's persistent store-backed result on the
  /// incremental path. Set by compute_flat() before every enforce.
  const core::ComputeResult* compute_view_ = nullptr;
  /// Per-stage previous report + first-report flag for delta framing.
  std::vector<proto::StageMetrics> last_report_;
  std::vector<char> has_report_;
  /// Collect wire accounting (see ExperimentResult).
  std::uint64_t collect_wire_bytes_ = 0;
  std::uint64_t collect_wire_bytes_full_ = 0;
  std::uint64_t collect_frames_full_ = 0;
  std::uint64_t collect_frames_delta_ = 0;
  core::CycleStats stats_;
  RunningStats data_utilization_;
  RunningStats meta_utilization_;
  telemetry::Gauge* events_gauge_ = nullptr;
  telemetry::Gauge* vtime_gauge_ = nullptr;
  bool cycle_in_flight_ = false;
  bool next_cycle_pending_ = false;
  Nanos next_cycle_at_{0};
  bool done_ = false;
  /// Next utilization sample instant (see take_sample).
  Nanos sample_at_{0};
  bool sample_pending_ = false;

  // -- Fault-injection state (unallocated without a plan) ---------------
  std::unique_ptr<fault::CompiledPlan> fault_;
  /// O(1) up/restart lookups over fault_'s timelines at the virtual clock.
  fault::OutageCursor stage_outages_;
  fault::OutageCursor agg_outages_;
  std::uint64_t faults_injected_ = 0;
  /// Virtual time of the last accepted collect reply per stage, for
  /// recovery accounting. Nanos{-1} = never.
  std::vector<Nanos> last_fresh_at_;
  /// Received-only metrics, compacted for degraded flat computes.
  std::vector<proto::StageMetrics> flat_scratch_;
  /// A phase closed short this cycle; recorded and reset in
  /// finish_cycle() with root_'s stale and recovery accounting.
  bool cycle_degraded_ = false;
};

}  // namespace

Result<ExperimentResult> run_experiment(const ExperimentConfig& config) {
  // Heap-allocated: the engine's time wheel is large for a stack frame.
  auto run = std::make_unique<Run>(config);
  SDS_RETURN_IF_ERROR(run->validate());
  return run->execute();
}

}  // namespace sds::sim
