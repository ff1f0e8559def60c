// Tests of the benchmark's own pieces: the transport and algorithm
// decorators, the tail-percentile helper, the demand generator and the
// host-speed scaling.
//
//   python3 sdsbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "decorators.h"
#include "policy/psfa.h"
#include "transport/tcp.h"

namespace sdsbench {
namespace {

using sds::wire::Frame;

struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Frame> frames;

  bool wait_for(std::size_t n) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return frames.size() >= n; });
  }
};

Frame make_frame(std::uint16_t type, std::size_t size, std::uint64_t seed) {
  Frame f;
  f.type = type;
  for (std::size_t i = 0; i < size; ++i) {
    f.payload.push_back(static_cast<std::uint8_t>(mix64(seed + i)));
  }
  return f;
}

TEST(TimingEndpoint, DeliversFramesUnchangedAndCountsLikeTheInnerEndpoint) {
  sds::transport::TcpNetwork tcp;
  TimingNetwork net(tcp);
  auto a = net.bind("127.0.0.1:0", {});
  auto b = net.bind("127.0.0.1:0", {});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  Inbox inbox_a;
  Inbox inbox_b;
  const auto collect = [](Inbox& inbox) {
    return [&inbox](sds::ConnId, Frame f) {
      std::lock_guard lock(inbox.mu);
      inbox.frames.push_back(std::move(f));
      inbox.cv.notify_all();
    };
  };
  (*a)->set_frame_handler(collect(inbox_a));
  (*a)->set_conn_handler([](sds::ConnId, sds::transport::ConnEvent) {});
  std::mutex conn_mu;
  sds::ConnId b_side{};
  (*b)->set_frame_handler([&](sds::ConnId conn, Frame f) {
    {
      std::lock_guard lock(conn_mu);
      b_side = conn;
    }
    collect(inbox_b)(conn, std::move(f));
  });
  (*b)->set_conn_handler([](sds::ConnId, sds::transport::ConnEvent) {});

  auto conn = (*a)->connect((*b)->address());
  ASSERT_TRUE(conn.is_ok());
  std::vector<Frame> sent;
  for (std::uint16_t i = 0; i < 40; ++i) {
    Frame f = make_frame(static_cast<std::uint16_t>(1 + i % 7), i * 37u, i);
    if (i % 5 == 3) f.trace = sds::wire::TraceContext{i, i + 1u};
    sent.push_back(f);
    if (i % 2 == 0) {
      ASSERT_TRUE((*a)->send(*conn, std::move(f)).is_ok());
    } else {
      ASSERT_TRUE(
          (*a)->send_shared(*conn, sds::wire::SharedFrame::from_frame(f)).is_ok());
    }
  }
  ASSERT_TRUE(inbox_b.wait_for(sent.size()));
  // One reply, so the receiving endpoint's send counters move too.
  sds::ConnId reply_conn;
  {
    std::lock_guard lock(conn_mu);
    reply_conn = b_side;
  }
  ASSERT_TRUE((*b)->send(reply_conn, make_frame(9, 100, 99)).is_ok());
  ASSERT_TRUE(inbox_a.wait_for(1));

  {
    std::lock_guard lock(inbox_b.mu);
    ASSERT_EQ(inbox_b.frames.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(inbox_b.frames[i].type, sent[i].type) << i;
      EXPECT_EQ(inbox_b.frames[i].payload, sent[i].payload) << i;
      EXPECT_EQ(inbox_b.frames[i].trace, sent[i].trace) << i;
    }
  }
  for (auto* ep : {a->get(), b->get()}) {
    const auto& stats = static_cast<TimingEndpoint*>(ep)->stats();
    const sds::transport::Counters inner = ep->counters();
    EXPECT_EQ(stats.msgs_sent.load(), inner.messages_sent);
    EXPECT_EQ(stats.bytes_sent.load(), inner.bytes_sent);
    EXPECT_EQ(stats.frames_handled.load(), inner.messages_received);
    EXPECT_EQ(stats.bytes_received.load(), inner.bytes_received);
  }
  (*a)->shutdown();
  (*b)->shutdown();
}

TEST(TimingAlgorithm, ReturnsTheWrappedPsfaAllocationsUnchanged) {
  auto stats = std::make_shared<AlgorithmStats>();
  const TimingAlgorithm timed(std::make_unique<sds::policy::Psfa>(), stats);
  const sds::policy::Psfa plain;
  EXPECT_EQ(timed.name(), plain.name());
  sds::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<sds::policy::JobDemand> demands;
    const auto jobs = 1 + rng.next_below(40);
    double total = 0;
    for (std::uint32_t j = 0; j < jobs; ++j) {
      const double d = rng.uniform(0.0, 2000.0);
      total += d;
      demands.push_back({sds::JobId{j}, d, rng.uniform(0.5, 2.0)});
    }
    const double budget = total * rng.uniform(0.3, 1.5);
    std::vector<sds::policy::JobAllocation> want;
    std::vector<sds::policy::JobAllocation> got;
    plain.compute(demands, budget, want);
    timed.compute(demands, budget, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].job_id, want[i].job_id);
      // Bit-identical, not merely close.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].allocation),
                std::bit_cast<std::uint64_t>(want[i].allocation));
    }
  }
  EXPECT_EQ(stats->runs.load(), 50u);
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  for (std::size_t n = 0; n <= 3000; ++n) {
    const int p = tail_percentile(n);
    if (n <= 10) {
      EXPECT_EQ(p, 0) << n;
      continue;
    }
    ASSERT_GT(p, 0) << n;
    ASSERT_LE(p, 99);
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    EXPECT_GE(n - rank, 10u) << "n=" << n << " p=" << p;
    if (p < 99) {
      // The next percentile up would leave fewer than ten.
      const auto next = static_cast<std::size_t>(
          std::ceil((p + 1) / 100.0 * static_cast<double>(n)));
      EXPECT_LT(n - next, 10u) << "n=" << n << " p=" << p;
    }
  }
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(999), 98);
  // The tail metric: capped at p90, the median when samples are few.
  EXPECT_EQ(tail_or_median(1000), 90);
  EXPECT_EQ(tail_or_median(63), 84);
  EXPECT_EQ(tail_or_median(7), 50);
}

TEST(TailPercentile, NearestRankOnSortedSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 50), 100);
  EXPECT_EQ(percentile_sorted(v, 99), 198);
  EXPECT_EQ(percentile_sorted(v, 100), 200);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(HostSpeed, ScalesToTheReferenceFromTheMedianCalibration) {
  // Totals 0.03, 0.06 and 0.06 s: the median total is 0.06 s.
  const std::vector<Calibration> runs = {{0.02, 0.01}, {0.04, 0.02}, {0.03, 0.03}};
  const HostSpeed speed = host_speed(runs);
  EXPECT_EQ(speed.samples, 3u);
  EXPECT_DOUBLE_EQ(speed.factor, kReferenceCalibrationS / 0.06);
  EXPECT_DOUBLE_EQ(speed.median.chase_s, 0.03);
  EXPECT_DOUBLE_EQ(speed.median.hash_table_s, 0.02);
  EXPECT_DOUBLE_EQ(speed_factor(runs[0], runs[1]), kReferenceCalibrationS / 0.045);
  // One failed calibration voids the run's scaling.
  const std::vector<Calibration> failed = {{0.02, 0.01}, {-1, -1}};
  EXPECT_EQ(host_speed(failed).factor, 0);
  EXPECT_EQ(speed_factor(failed[0], failed[1]), 0);
}

TEST(DemandModel, IsAPureFunctionOfSeedStageAndTime) {
  DemandModel model;
  model.seed = 11;
  model.stages_per_job = 50;
  model.churn_period = 100;
  model.epoch = sds::millis(500);
  const auto d = sds::stage::Dimension::kData;
  // Same inputs, any call order, any instance: same value.
  std::vector<double> forward;
  for (std::uint32_t s = 0; s < 500; ++s) {
    forward.push_back(model.value(s, d, sds::millis(137 * s)));
  }
  DemandModel copy = model;
  for (std::uint32_t s = 500; s-- > 0;) {
    EXPECT_EQ(copy.value(s, d, sds::millis(137 * s)), forward[s]);
  }
  // Another seed gives other inputs.
  DemandModel other = model;
  other.seed = 12;
  int same = 0;
  for (std::uint32_t s = 0; s < 500; ++s) {
    same += other.value(s, d, sds::millis(137 * s)) == forward[s];
  }
  EXPECT_EQ(same, 0);
  // Without churn demand never moves.
  DemandModel flat = model;
  flat.churn_period = 0;
  EXPECT_EQ(flat.value(3, d, sds::Nanos{0}), flat.value(3, d, sds::seconds(900)));
}

TEST(DemandModel, ChurnsAboutOnePercentOfJobsPerEpoch) {
  DemandModel model;
  model.seed = 3;
  model.churn_period = 100;
  model.epoch = sds::millis(500);
  const std::uint32_t jobs = 2000;
  for (std::int64_t e = 1; e < 40; ++e) {
    int moved = 0;
    for (std::uint32_t j = 0; j < jobs; ++j) {
      moved += model.job_level(j, model.epoch * e) !=
               model.job_level(j, model.epoch * (e - 1));
    }
    EXPECT_GT(moved, 5) << e;
    EXPECT_LT(moved, 40) << e;
  }
}

}  // namespace
}  // namespace sdsbench
