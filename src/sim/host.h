// SimHost — time model of one controller node: a serial CPU queue and a
// serializing NIC transmit link, with byte/busy-time accounting.
//
// The model is deliberately simple (it is the paper's own observation
// that per-message controller work and the connection fan-out dominate):
//   * CPU work items execute FIFO on one core; `busy_ns` accumulates.
//   * Outbound messages first cost CPU (build/serialize), then occupy the
//     NIC for size/bandwidth, then arrive after the wire latency.
//   * Inbound messages cost CPU on receive before their handler runs.
//
// A message therefore costs two engine events: its arrival, and the
// receiver's CPU completion. The sender's CPU and NIC stages need no
// event of their own. The CPU is FIFO, so sends finish their CPU work in
// call order and reach the NIC in call order; the NIC is FIFO as well.
// When send() is called, every earlier send has already advanced
// `tx_free_`, and no later one can, so the transmit start
// max(cpu_done, tx_free_) is the same number an event at cpu_done would
// compute. Only the engine sequence number of the arrival differs, which
// orders it differently against unrelated events at the same instant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/engine.h"
#include "sim/profile.h"

namespace sds::sim {

class SimHost {
 public:
  SimHost(Engine& engine, const FronteraProfile& profile, std::string name)
      : engine_(&engine), profile_(&profile), name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Execute `fn` after `cpu_cost` of serial CPU work on this host.
  /// Templated so a raw closure is constructed directly in its engine
  /// cell, with no intermediate EventFn to relocate.
  template <typename F>
  void run(Nanos cpu_cost, F&& fn) {
    engine_->schedule_at(occupy_cpu(cpu_cost), std::forward<F>(fn));
  }

  // sdslint: hotpath
  /// Send a message of `payload_bytes`: charges send CPU (plus
  /// `extra_cpu`, e.g. per-rule routing work), serializes on the NIC,
  /// then invokes `on_arrival` at the destination time. The receiver is
  /// responsible for charging its own receive cost (use `receive` in the
  /// continuation).
  /// The arrival is the only engine event (see the header comment), and
  /// the raw closure goes straight into its cell.
  template <typename F>
  void send(std::size_t payload_bytes, F&& on_arrival,
            Nanos extra_cpu = Nanos{0}) {
    const Nanos cpu_done = occupy_cpu(charge_send(payload_bytes, extra_cpu));
    const Nanos serialize{static_cast<std::int64_t>(
        static_cast<double>(payload_bytes + profile_->msg_overhead_bytes) /
        profile_->nic_bytes_per_ns)};
    tx_free_ = std::max(cpu_done, tx_free_) + serialize;
    engine_->schedule_at(tx_free_ + profile_->wire_latency,
                         std::forward<F>(on_arrival));
  }
  // sdslint: end-hotpath

  /// Fan out `count` messages of identical `payload_bytes`: exactly
  /// send() `count` times in index order — same accounting, same event
  /// times, same FIFO ordering. `make_on_arrival(i)` is invoked
  /// synchronously for i in [0, count).
  template <typename MakeArrival>
  void broadcast(std::size_t count, std::size_t payload_bytes,
                 MakeArrival&& make_on_arrival, Nanos extra_cpu = Nanos{0}) {
    for (std::size_t i = 0; i < count; ++i) {
      send(payload_bytes, make_on_arrival(i), extra_cpu);
    }
  }

  /// Account an inbound message and run `fn` after the receive CPU cost.
  template <typename F>
  void receive(std::size_t payload_bytes, F&& fn) {
    bytes_rx_ += payload_bytes + profile_->msg_overhead_bytes;
    ++messages_rx_;
    const Nanos cpu_cost =
        profile_->cpu_recv_fixed +
        Nanos{static_cast<std::int64_t>(
            static_cast<double>(payload_bytes) * profile_->cpu_recv_per_byte_ns)};
    run(cpu_cost, std::forward<F>(fn));
  }

  // -- Accounting ------------------------------------------------------
  [[nodiscard]] Nanos busy() const { return Nanos{busy_ns_} ; }
  [[nodiscard]] std::uint64_t bytes_tx() const { return bytes_tx_; }
  [[nodiscard]] std::uint64_t bytes_rx() const { return bytes_rx_; }
  [[nodiscard]] std::uint64_t messages_tx() const { return messages_tx_; }
  [[nodiscard]] std::uint64_t messages_rx() const { return messages_rx_; }

  void reset_accounting() {
    busy_ns_ = Nanos{0}.count();
    bytes_tx_ = bytes_rx_ = 0;
    messages_tx_ = messages_rx_ = 0;
  }

 private:
  /// Account one outbound message and return its send-side CPU cost.
  Nanos charge_send(std::size_t payload_bytes, Nanos extra_cpu) {
    bytes_tx_ += payload_bytes + profile_->msg_overhead_bytes;
    ++messages_tx_;
    return extra_cpu + profile_->cpu_send_fixed +
           Nanos{static_cast<std::int64_t>(
               static_cast<double>(payload_bytes) *
               profile_->cpu_send_per_byte_ns)};
  }

  /// Queue `cpu_cost` of work behind the host's earlier CPU work and
  /// return the instant it completes.
  Nanos occupy_cpu(Nanos cpu_cost) {
    cpu_free_ = std::max(engine_->now(), cpu_free_) + cpu_cost;
    busy_ns_ += cpu_cost.count();
    return cpu_free_;
  }

  Engine* engine_;
  const FronteraProfile* profile_;
  std::string name_;

  Nanos cpu_free_{0};
  Nanos tx_free_{0};
  std::int64_t busy_ns_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t messages_tx_ = 0;
  std::uint64_t messages_rx_ = 0;
};

}  // namespace sds::sim
