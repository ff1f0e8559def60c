// Timing decorators of the traced live run. They wrap public seams of
// the program, the way fault::ChaosNetwork wraps transport::Network:
//  * TimingNetwork / TimingEndpoint — every send/send_shared is timed and
//    counted, and the installed FrameHandler (rpc dispatch, proto decode,
//    gather fold) is wrapped to time each delivered frame and sample the
//    event-loop thread's CPU clock;
//  * TimingAlgorithm — times each policy::ControlAlgorithm::compute.
// Frames pass through unchanged.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "common.h"
#include "policy/algorithm.h"
#include "transport/transport.h"

namespace sdsbench {

/// Cumulative per-endpoint counters (relaxed atomics: the sender threads
/// and the endpoint's delivery thread update them concurrently).
struct EndpointStats {
  std::atomic<std::uint64_t> msgs_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> send_ns{0};
  std::atomic<std::uint64_t> frames_handled{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> handler_ns{0};
  std::atomic<std::uint64_t> handler_cpu_ns{0};
  /// Delivery thread's CPU clock at its latest handler exit.
  std::atomic<std::int64_t> loop_cpu_ns{0};
};

class TimingEndpoint final : public sds::transport::Endpoint {
 public:
  explicit TimingEndpoint(std::unique_ptr<sds::transport::Endpoint> inner)
      : inner_(std::move(inner)), stats_(std::make_shared<EndpointStats>()) {}

  [[nodiscard]] const std::string& address() const override {
    return inner_->address();
  }
  void set_frame_handler(sds::transport::FrameHandler handler) override {
    inner_->set_frame_handler(
        [handler = std::move(handler), stats = stats_](sds::ConnId conn,
                                                       sds::wire::Frame frame) {
          const std::int64_t cpu0 = thread_cpu_ns();
          const std::int64_t wall0 = wall_ns();
          stats->frames_handled.fetch_add(1, std::memory_order_relaxed);
          stats->bytes_received.fetch_add(frame.wire_size(),
                                          std::memory_order_relaxed);
          handler(conn, std::move(frame));
          const std::int64_t wall1 = wall_ns();
          const std::int64_t cpu1 = thread_cpu_ns();
          stats->handler_ns.fetch_add(static_cast<std::uint64_t>(wall1 - wall0),
                                      std::memory_order_relaxed);
          stats->handler_cpu_ns.fetch_add(static_cast<std::uint64_t>(cpu1 - cpu0),
                                          std::memory_order_relaxed);
          stats->loop_cpu_ns.store(cpu1, std::memory_order_relaxed);
        });
  }
  void set_conn_handler(sds::transport::ConnEventHandler handler) override {
    inner_->set_conn_handler(std::move(handler));
  }
  sds::Result<sds::ConnId> connect(const std::string& peer_address) override {
    return inner_->connect(peer_address);
  }
  sds::Status send(sds::ConnId conn, sds::wire::Frame frame) override {
    const std::size_t size = frame.wire_size();
    const std::int64_t t0 = wall_ns();
    sds::Status status = inner_->send(conn, std::move(frame));
    count_send(status, size, t0);
    return status;
  }
  sds::Status send_shared(sds::ConnId conn,
                          const sds::wire::SharedFrame& frame) override {
    const std::int64_t t0 = wall_ns();
    sds::Status status = inner_->send_shared(conn, frame);
    count_send(status, frame.wire_size(), t0);
    return status;
  }
  void close(sds::ConnId conn) override { inner_->close(conn); }
  void shutdown() override { inner_->shutdown(); }
  [[nodiscard]] sds::transport::Counters counters() const override {
    return inner_->counters();
  }

  [[nodiscard]] const EndpointStats& stats() const { return *stats_; }

 private:
  void count_send(const sds::Status& status, std::size_t size,
                  std::int64_t t0) {
    stats_->send_ns.fetch_add(static_cast<std::uint64_t>(wall_ns() - t0),
                              std::memory_order_relaxed);
    if (!status.is_ok()) return;
    stats_->msgs_sent.fetch_add(1, std::memory_order_relaxed);
    stats_->bytes_sent.fetch_add(size, std::memory_order_relaxed);
  }

  std::unique_ptr<sds::transport::Endpoint> inner_;
  // Shared with the wrapped handler, which the inner endpoint may still
  // hold while it shuts down.
  std::shared_ptr<EndpointStats> stats_;
};

class TimingNetwork final : public sds::transport::Network {
 public:
  explicit TimingNetwork(sds::transport::Network& inner) : inner_(&inner) {}

  sds::Result<std::unique_ptr<sds::transport::Endpoint>> bind(
      const std::string& address,
      const sds::transport::EndpointOptions& options) override {
    auto endpoint = inner_->bind(address, options);
    if (!endpoint.is_ok()) return endpoint.status();
    return std::unique_ptr<sds::transport::Endpoint>(
        std::make_unique<TimingEndpoint>(std::move(*endpoint)));
  }

 private:
  sds::transport::Network* inner_;
};

struct AlgorithmStats {
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> ns{0};
};

class TimingAlgorithm final : public sds::policy::ControlAlgorithm {
 public:
  TimingAlgorithm(std::unique_ptr<sds::policy::ControlAlgorithm> inner,
                  std::shared_ptr<AlgorithmStats> stats)
      : inner_(std::move(inner)), stats_(std::move(stats)) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  void compute(std::span<const sds::policy::JobDemand> demands, double budget,
               std::vector<sds::policy::JobAllocation>& out) const override {
    const std::int64_t t0 = wall_ns();
    inner_->compute(demands, budget, out);
    stats_->ns.fetch_add(static_cast<std::uint64_t>(wall_ns() - t0),
                         std::memory_order_relaxed);
    stats_->runs.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<sds::policy::ControlAlgorithm> inner_;
  std::shared_ptr<AlgorithmStats> stats_;
};

}  // namespace sdsbench
