#include "app/video_server.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "app/session.h"
#include "app/video_client.h"
#include "cc/ack_sink.h"
#include "cc/rap_source.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace qa::app {
namespace {

struct ServerFixture : ::testing::Test {
  sim::Network net;
  sim::Dumbbell d;
  cc::RapSource* rap = nullptr;
  cc::AckSink* sink = nullptr;
  std::unique_ptr<VideoServer> server;
  std::vector<sim::Packet> received;

  void build(Rate bottleneck, core::AdapterConfig cfg = {},
             int layers = 4, Rate layer_rate = Rate::kilobytes_per_sec(10)) {
    sim::DumbbellParams topo;
    topo.pairs = 1;
    topo.bottleneck_bw = bottleneck;
    d = sim::build_dumbbell(net, topo);
    const sim::FlowId flow = net.allocate_flow_id();
    cc::CcParams rp;
    rp.initial_rate = layer_rate;
    rap = net.adopt_agent(
        d.left[0], flow,
        std::make_unique<cc::RapSource>(&net.scheduler(), d.left[0],
                                        d.right[0]->id(), flow, rp));
    sink = net.adopt_agent(d.right[0], flow,
                           std::make_unique<cc::AckSink>(&net.scheduler(),
                                                         d.right[0]));
    sink->set_consumer([this](const sim::Packet& p) { received.push_back(p); });
    cfg.max_layers = layers;
    cfg.consumption_rate = layer_rate.bps();
    server = std::make_unique<VideoServer>(&net.scheduler(), rap, cfg);
  }
};

TEST_F(ServerFixture, EveryDataPacketIsTaggedWithAValidLayer) {
  build(Rate::kilobytes_per_sec(50));
  net.run(TimePoint::from_sec(5));
  ASSERT_GT(received.size(), 50u);
  for (const auto& p : received) {
    EXPECT_GE(p.layer, -1);
    EXPECT_LT(p.layer, 4);
    if (p.layer >= 0) {
      EXPECT_GE(p.layer_seq, 0);
    }
  }
}

TEST_F(ServerFixture, LayerSequenceNumbersAreContiguousPerLayer) {
  build(Rate::kilobytes_per_sec(50));
  net.run(TimePoint::from_sec(5));
  std::vector<int64_t> last(4, -1);
  for (const auto& p : received) {
    if (p.layer < 0) continue;
    // Drop-tail losses leave gaps but FIFO delivery keeps per-layer
    // sequence numbers strictly increasing.
    EXPECT_GT(p.layer_seq, last[static_cast<size_t>(p.layer)]);
    last[static_cast<size_t>(p.layer)] = p.layer_seq;
  }
}

TEST_F(ServerFixture, PaddingSlotsAppearWhenEverythingIsBuffered) {
  // Stream of 2 tiny layers on a fat link: targets fill fast, then the
  // transport keeps pacing with padding.
  core::AdapterConfig cfg;
  cfg.kmax = 1;
  build(Rate::megabits_per_sec(10), cfg, /*layers=*/2,
        Rate::kilobytes_per_sec(5));
  net.run(TimePoint::from_sec(10));
  EXPECT_GT(server->padding_packets(), 0);
  // Padding reached the client tagged layer = -1 and was ignored there.
  bool saw_padding = false;
  for (const auto& p : received) {
    if (p.layer == -1) saw_padding = true;
  }
  EXPECT_TRUE(saw_padding);
}

TEST_F(ServerFixture, WindowCountersResetOnTake) {
  build(Rate::kilobytes_per_sec(50));
  net.run(TimePoint::from_sec(2));
  std::array<double, 4> window{};
  server->take_window_sent(window);
  double sum = 0;
  for (double v : window) sum += v;
  EXPECT_GT(sum, 0.0);
  server->take_window_sent(window);
  for (double v : window) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(ServerFixture, BytesSentAccumulatePerLayer) {
  build(Rate::kilobytes_per_sec(50));
  net.run(TimePoint::from_sec(5));
  EXPECT_GT(server->bytes_sent(0), 0);
  int64_t total = 0;
  for (int i = 0; i < 4; ++i) total += server->bytes_sent(i);
  EXPECT_EQ(total + server->padding_packets() * 1000,
            rap->packets_sent() * 1000);
}

// The adapter config is the stream: the adapter keeps its (layers, C) and
// the server sizes its per-layer counters from the same layer count.
TEST_F(ServerFixture, StreamShapeComesFromTheAdapterConfig) {
  build(Rate::kilobytes_per_sec(50), {}, /*layers=*/6,
        Rate::kilobytes_per_sec(7));
  EXPECT_EQ(server->adapter().config().max_layers, 6);
  EXPECT_DOUBLE_EQ(server->adapter().config().consumption_rate, 7'000.0);
  net.run(TimePoint::from_sec(2));
  std::array<double, 6> window{};
  server->take_window_sent(window);
  EXPECT_GT(window[0], 0.0);
  EXPECT_GE(server->bytes_sent(5), 0);  // layer 5 exists
}

// The server hears the controller through scoped event subscriptions; a
// stopped session must leave none behind on a controller that the network
// keeps alive.
TEST(SessionTeardown, StopLeavesNoServerSubscriberOnTheController) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  const sim::Dumbbell d = sim::build_dumbbell(net, topo);
  Session session(net, d.left[0], d.right[0], SessionConfig{});
  cc::CongestionController& controller = session.controller();
  EXPECT_EQ(controller.on_loss().subscriber_count(), 1u);
  EXPECT_EQ(controller.on_backoff().subscriber_count(), 1u);
  EXPECT_EQ(controller.on_quiescence().subscriber_count(), 1u);
  net.run(TimePoint::from_sec(2));
  session.stop();
  EXPECT_EQ(controller.on_loss().subscriber_count(), 0u);
  EXPECT_EQ(controller.on_backoff().subscriber_count(), 0u);
  EXPECT_EQ(controller.on_quiescence().subscriber_count(), 0u);
  EXPECT_EQ(controller.on_rate_change().subscriber_count(), 0u);
}

// The adapter config is the session's only description of the stream: the
// adapter and the client both get its C bit for bit (a C whose n-fold sum
// is inexact, as 3 x 3000.7 is) and its layer count.
TEST(Session, StreamShapeHasOneHome) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = Rate::megabits_per_sec(10);
  const sim::Dumbbell d = sim::build_dumbbell(net, topo);
  SessionConfig cfg;
  cfg.adapter.consumption_rate = 3000.7;
  cfg.adapter.max_layers = 3;
  cfg.cc.initial_rate = Rate::bytes_per_sec(3000.7);
  Session session(net, d.left[0], d.right[0], cfg);
  const core::QualityAdapter& adapter = session.server().adapter();
  EXPECT_EQ(adapter.config().consumption_rate, 3000.7);
  EXPECT_EQ(adapter.receiver().consumption_rate(), 3000.7);
  EXPECT_EQ(session.client().model().consumption_rate(), 3000.7);
  EXPECT_EQ(adapter.config().max_layers, 3);

  net.run(TimePoint::from_sec(30));
  EXPECT_EQ(adapter.active_layers(), 3);
  EXPECT_EQ(session.client().layers_seen(), 3);
}

}  // namespace
}  // namespace qa::app
