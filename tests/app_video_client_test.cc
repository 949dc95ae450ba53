#include "app/video_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace qa::app {
namespace {

struct ClientFixture : ::testing::Test {
  sim::Scheduler sched;
  VideoClient client{&sched, /*consumption_rate=*/10'000.0, /*max_layers=*/4,
                     /*playout_delay=*/TimeDelta::seconds(1),
                     /*keep_packet_log=*/true};

  void deliver(double t, int layer, int64_t seq, int32_t bytes = 1000) {
    sched.run_until(TimePoint::from_sec(t));
    sim::Packet p;
    p.layer = static_cast<int16_t>(layer);
    p.layer_seq = seq;
    p.size_bytes = bytes;
    p.type = sim::PacketType::kData;
    client.on_data(p);
  }
};

TEST_F(ClientFixture, IgnoresNonVideoPackets) {
  sim::Packet p;
  p.layer = -1;
  client.on_data(p);
  EXPECT_EQ(client.packets_received(), 0);
  EXPECT_EQ(client.layers_seen(), 0);
}

TEST_F(ClientFixture, ActivatesLayersInOrderOfFirstSight) {
  deliver(0.0, 0, 0);
  EXPECT_EQ(client.layers_seen(), 1);
  deliver(0.1, 2, 0);  // jumps to layer 2: activates 1 and 2
  EXPECT_EQ(client.layers_seen(), 3);
}

TEST_F(ClientFixture, PlayoutWaitsForDelayAndBufferTarget) {
  // Deliver well over the startup reserve quickly; playout must still not
  // begin before the delay, and buffers must not deplete before it.
  for (int i = 0; i < 10; ++i) deliver(0.05 * i, 0, i);
  client.sync();
  EXPECT_DOUBLE_EQ(client.buffer(0), 10'000.0);
  sched.run_until(TimePoint::from_sec(0.9));
  client.sync();
  EXPECT_DOUBLE_EQ(client.buffer(0), 10'000.0);  // still pre-playout
  // After the delay (first arrival at t=0 -> playout from ~1.0 s), data
  // starts being consumed at 10 kB/s.
  deliver(1.5, 0, 10);  // playout begins here (delay + reserve both met)
  sched.run_until(TimePoint::from_sec(2.0));
  client.sync();
  EXPECT_NEAR(client.buffer(0), 11'000.0 - 5'000.0, 1.0);
}

TEST_F(ClientFixture, StallAccountingOnlyAfterPlayoutStarts) {
  deliver(0.0, 0, 0);
  sched.run_until(TimePoint::from_sec(0.99));
  client.sync();
  EXPECT_EQ(client.base_stall(), TimeDelta::zero());
  // 1000 B buffered is below the 2500 B startup reserve: playout waits.
  deliver(1.2, 0, 1);
  deliver(1.3, 0, 2);  // 3000 >= 2500: playout begins at the next sync
  sched.run_until(TimePoint::from_sec(1.35));
  client.sync();  // playing from t = 1.35
  sched.run_until(TimePoint::from_sec(2.0));
  client.sync();
  // 0.65 s of playout against 0.3 s of media: ~0.35 s stall.
  EXPECT_GT(client.base_stall(), TimeDelta::millis(300));
  EXPECT_LT(client.base_stall(), TimeDelta::millis(400));
}

TEST_F(ClientFixture, PacketLogRecordsMonotonePlayout) {
  for (int i = 0; i < 30; ++i) deliver(0.1 * i, 0, i);
  const auto& log = client.packet_log();
  ASSERT_EQ(log.size(), 30u);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_GE(log[i].playout, log[i].arrival);
    if (i > 0 && log[i].layer == log[i - 1].layer) {
      EXPECT_GE(log[i].playout, log[i - 1].playout);
    }
  }
}

TEST_F(ClientFixture, TotalBufferSumsActiveLayers) {
  deliver(0.0, 0, 0);
  deliver(0.0, 1, 0, 500);
  client.sync();
  EXPECT_DOUBLE_EQ(client.total_buffer(), 1'500.0);
}

// The dedup scan as the client ran it before its in-order fast path: every
// arrival searches a ring of the last 512 accepted (layer, layer_seq) keys.
class ReferenceDedup {
 public:
  bool duplicate(int layer, int64_t seq) {
    const std::pair<int, int64_t> key{layer, seq};
    if (std::find(ring_.begin(), ring_.end(), key) != ring_.end()) return true;
    if (ring_.size() < kWindow) {
      ring_.push_back(key);
    } else {
      ring_[next_] = key;
      next_ = (next_ + 1) % kWindow;
    }
    return false;
  }

 private:
  static constexpr size_t kWindow = 512;
  std::vector<std::pair<int, int64_t>> ring_;
  size_t next_ = 0;
};

TEST_F(ClientFixture, DedupDiscardsExactlyWhatTheRingScanDoes) {
  // Four layers sent in order, then disturbed on the wire: adjacent swaps
  // (reordering), immediate repeats (wire duplicates) and resends of an
  // earlier packet up to 2,000 arrivals back, past the 512-entry window
  // (retransmissions, some of whose originals the ring has forgotten).
  Rng rng(7);
  std::vector<std::pair<int, int64_t>> sent;
  std::array<int64_t, 4> next_seq{};
  for (int i = 0; i < 6'000; ++i) {
    const auto layer = static_cast<size_t>(rng.next_below(4));
    sent.emplace_back(static_cast<int>(layer), next_seq[layer]++);
  }
  for (size_t i = 1; i < sent.size(); ++i) {
    if (rng.bernoulli(0.05)) std::swap(sent[i - 1], sent[i]);
  }
  std::vector<std::pair<int, int64_t>> wire;
  for (size_t i = 0; i < sent.size(); ++i) {
    wire.push_back(sent[i]);
    const double u = rng.next_double();
    if (u < 0.03) {
      wire.push_back(sent[i]);
    } else if (u < 0.06 && i > 0) {
      wire.push_back(sent[i - 1 - rng.next_below(std::min<size_t>(i, 2'000))]);
    }
  }

  ReferenceDedup reference;
  int64_t expected = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    const auto [layer, seq] = wire[i];
    if (reference.duplicate(layer, seq)) ++expected;
    deliver(0.001 * static_cast<double>(i), layer, seq);
    ASSERT_EQ(client.duplicates_discarded(), expected)
        << "arrival " << i << ": layer " << layer << " seq " << seq;
  }
  // Every kind of arrival occurred: repeats, and resends the ring accepted.
  EXPECT_GT(expected, 200);
  EXPECT_GT(client.packets_received(), static_cast<int64_t>(sent.size()));
}

}  // namespace
}  // namespace qa::app
