#include "sim/host.h"

#include <vector>

#include <gtest/gtest.h>

namespace sds::sim {
namespace {

FronteraProfile simple_profile() {
  FronteraProfile p;
  p.wire_latency = micros(10);
  p.nic_bytes_per_ns = 1.0;  // 1 GB/s
  p.msg_overhead_bytes = 0;
  p.cpu_send_fixed = micros(2);
  p.cpu_send_per_byte_ns = 0;
  p.cpu_recv_fixed = micros(3);
  p.cpu_recv_per_byte_ns = 0;
  return p;
}

TEST(SimHostTest, RunSerializesCpuWork) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");

  std::vector<Nanos> completions;
  host.run(micros(5), [&] { completions.push_back(engine.now()); });
  host.run(micros(5), [&] { completions.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], micros(5));
  EXPECT_EQ(completions[1], micros(10));  // queued behind the first
  EXPECT_EQ(host.busy(), micros(10));
}

TEST(SimHostTest, SendChargesCpuAndDelaysByWire) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");

  Nanos arrival{-1};
  host.send(1000, [&] { arrival = engine.now(); });
  engine.run();
  // send CPU 2 us + serialization 1000 B at 1 B/ns = 1 us + latency 10 us.
  EXPECT_EQ(arrival, micros(2) + micros(1) + micros(10));
  EXPECT_EQ(host.bytes_tx(), 1000u);
  EXPECT_EQ(host.messages_tx(), 1u);
}

TEST(SimHostTest, ExtraCpuAddsToSendCost) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  Nanos arrival{-1};
  host.send(0, [&] { arrival = engine.now(); }, micros(7));
  engine.run();
  EXPECT_EQ(arrival, micros(2) + micros(7) + micros(10));
}

TEST(SimHostTest, NicSerializesConcurrentSends) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  profile.cpu_send_fixed = Nanos{0};
  SimHost host(engine, profile, "h");

  std::vector<Nanos> arrivals;
  for (int i = 0; i < 3; ++i) {
    host.send(1000, [&] { arrivals.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 1000-byte message takes 1 us on the NIC; they queue.
  EXPECT_EQ(arrivals[0], micros(1) + micros(10));
  EXPECT_EQ(arrivals[1], micros(2) + micros(10));
  EXPECT_EQ(arrivals[2], micros(3) + micros(10));
}

TEST(SimHostTest, ReceiveCountsBytesAndChargesCpu) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");

  Nanos processed{-1};
  host.receive(500, [&] { processed = engine.now(); });
  engine.run();
  EXPECT_EQ(processed, micros(3));
  EXPECT_EQ(host.bytes_rx(), 500u);
  EXPECT_EQ(host.messages_rx(), 1u);
}

TEST(SimHostTest, MessageOverheadCountedOnWire) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  profile.msg_overhead_bytes = 64;
  SimHost host(engine, profile, "h");
  host.send(100, [] {});
  host.receive(100, [] {});
  engine.run();
  EXPECT_EQ(host.bytes_tx(), 164u);
  EXPECT_EQ(host.bytes_rx(), 164u);
}

TEST(SimHostTest, CpuAndNicPipelineOverlap) {
  // CPU keeps producing while the NIC drains: total time for n messages
  // is ~max(n*cpu, n*wire), not their sum.
  Engine engine;
  FronteraProfile profile = simple_profile();
  profile.cpu_send_fixed = micros(2);
  profile.wire_latency = Nanos{0};
  SimHost host(engine, profile, "h");

  Nanos last{0};
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    host.send(1000, [&] { last = engine.now(); });  // 1 us wire each
  }
  engine.run();
  // CPU path: 200 us total; wire adds only its last microsecond.
  EXPECT_GE(last, micros(200));
  EXPECT_LE(last, micros(202));
}

TEST(SimHostTest, ResetAccounting) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  host.send(100, [] {});
  host.run(micros(1), [] {});
  engine.run();
  host.reset_accounting();
  EXPECT_EQ(host.bytes_tx(), 0u);
  EXPECT_EQ(host.busy(), Nanos{0});
  EXPECT_EQ(host.messages_tx(), 0u);
}

// send() computes the NIC hop at call time. The expected times below are
// worked out by hand with the two-hop model it replaces: send CPU FIFO
// after the host's earlier work, then NIC start = max(cpu_done,
// tx_free), tx_free = start + bytes / bandwidth, arrival = tx_free +
// wire latency. simple_profile(): send CPU 2 us, 1 B/ns, latency 10 us.

TEST(SimHostFusedSendTest, CpuBoundBurst) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  std::vector<Nanos> arrivals;
  for (int i = 0; i < 3; ++i) {
    host.send(1000, [&] { arrivals.push_back(engine.now()); });
  }
  engine.run();
  // CPU done at 2/4/6 us; the 1 us NIC hop is always idle by then.
  EXPECT_EQ(arrivals, (std::vector<Nanos>{micros(13), micros(15), micros(17)}));
  EXPECT_EQ(host.busy(), micros(6));
  EXPECT_EQ(host.bytes_tx(), 3000u);
  EXPECT_EQ(host.messages_tx(), 3u);
}

TEST(SimHostFusedSendTest, NicBoundBurst) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  std::vector<Nanos> arrivals;
  for (int i = 0; i < 3; ++i) {
    host.send(5000, [&] { arrivals.push_back(engine.now()); });
  }
  engine.run();
  // CPU done at 2/4/6 us, 5 us on the NIC each: tx_free leads from the
  // second message on — NIC free at 7, 12, 17 us.
  EXPECT_EQ(arrivals, (std::vector<Nanos>{micros(17), micros(22), micros(27)}));
  EXPECT_EQ(host.busy(), micros(6));
  EXPECT_EQ(host.bytes_tx(), 15000u);
  EXPECT_EQ(host.messages_tx(), 3u);
}

TEST(SimHostFusedSendTest, RunWorkInterleavedWithSends) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  std::vector<std::pair<char, Nanos>> log;
  const auto note = [&](char tag) { log.emplace_back(tag, engine.now()); };
  host.send(4000, [&] { note('a'); });  // CPU 0-2, NIC 2-6 -> 16
  host.run(micros(1), [&] { note('r'); });  // CPU 2-3
  host.send(1000, [&] { note('b'); });  // CPU 3-5, NIC waits: 6-7 -> 17
  host.run(micros(5), [&] { note('s'); });  // CPU 5-10
  host.send(1000, [&] { note('c'); });  // CPU 10-12, NIC 12-13 -> 23
  // A send issued from an event after the host went idle: CPU from the
  // event's own instant (40 us), NIC 42-43 -> 53.
  engine.schedule_at(micros(40), [&] {
    host.send(1000, [&] { note('d'); });
  });
  engine.run();
  const std::vector<std::pair<char, Nanos>> want = {
      {'r', micros(3)},  {'s', micros(10)}, {'a', micros(16)},
      {'b', micros(17)}, {'c', micros(23)}, {'d', micros(53)}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(host.busy(), micros(2 + 1 + 2 + 5 + 2 + 2));
  EXPECT_EQ(host.bytes_tx(), 7000u);
  EXPECT_EQ(host.messages_tx(), 4u);
}

TEST(SimHostFusedSendTest, ExtraCpuDelaysNicStart) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  profile.msg_overhead_bytes = 500;
  SimHost host(engine, profile, "h");
  std::vector<Nanos> arrivals;
  // 500 + 500 B on the wire (1 us); CPU 2 + 7 us -> NIC 9-10 -> 20.
  host.send(500, [&] { arrivals.push_back(engine.now()); }, micros(7));
  // Empty payload, overhead only: CPU 9-11, NIC 11-11.5 -> 21.5.
  host.send(0, [&] { arrivals.push_back(engine.now()); });
  engine.run();
  EXPECT_EQ(arrivals, (std::vector<Nanos>{micros(20), Nanos{21'500}}));
  EXPECT_EQ(host.busy(), micros(11));
  EXPECT_EQ(host.bytes_tx(), 1500u);
  EXPECT_EQ(host.messages_tx(), 2u);
}

TEST(SimHostFusedSendTest, BroadcastMatchesSendsInIndexOrder) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  std::vector<std::pair<std::size_t, Nanos>> arrivals;
  host.broadcast(
      3, 2000,
      [&](std::size_t i) {
        return [&arrivals, &engine, i] { arrivals.emplace_back(i, engine.now()); };
      },
      micros(1));
  engine.run();
  // CPU 3 us each (done 3/6/9), 2 us on the NIC: free at 5, 8, 11.
  const std::vector<std::pair<std::size_t, Nanos>> want = {
      {0, micros(15)}, {1, micros(18)}, {2, micros(21)}};
  EXPECT_EQ(arrivals, want);
  EXPECT_EQ(host.busy(), micros(9));
  EXPECT_EQ(host.bytes_tx(), 6000u);
  EXPECT_EQ(host.messages_tx(), 3u);
}

TEST(SimHostFusedSendTest, OneEngineEventPerSend) {
  Engine engine;
  FronteraProfile profile = simple_profile();
  SimHost host(engine, profile, "h");
  for (int i = 0; i < 5; ++i) host.send(100, [] {});
  engine.run();
  EXPECT_EQ(engine.executed(), 5u);
}

}  // namespace
}  // namespace sds::sim
