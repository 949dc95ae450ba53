// Selective retransmission of important layers (§1.3 extension).
#include <gtest/gtest.h>

#include <memory>

#include "app/session.h"
#include "sim/loss_model.h"
#include "sim/topology.h"

namespace qa::app {
namespace {

struct RetxFixture {
  sim::Network net;
  sim::Dumbbell d;
  std::unique_ptr<Session> session;

  explicit RetxFixture(int retransmit_below, double wire_loss,
                       uint64_t loss_seed = 11) {
    sim::DumbbellParams topo;
    topo.pairs = 1;
    topo.bottleneck_bw = Rate::kilobytes_per_sec(40);
    topo.rtt = TimeDelta::millis(60);
    d = sim::build_dumbbell(net, topo);
    d.bottleneck->set_loss_model(
        std::make_unique<sim::BernoulliLoss>(wire_loss, loss_seed));
    SessionConfig cfg;
    cfg.adapter.max_layers = 4;
    cfg.adapter.consumption_rate = 5'000;
    cfg.cc.packet_size = 500;
    cfg.cc.initial_rate = Rate::kilobytes_per_sec(5);
    cfg.adapter.kmax = 2;
    cfg.server.retransmit_below_layer = retransmit_below;
    session = std::make_unique<Session>(net, d.left[0], d.right[0], cfg);
  }
};

TEST(Retransmission, DisabledByDefault) {
  RetxFixture f(0, 0.05);
  f.net.run(TimePoint::from_sec(20));
  EXPECT_EQ(f.session->server().retransmissions(), 0);
}

TEST(Retransmission, ResendsLostBasePackets) {
  RetxFixture f(1, 0.05);
  f.net.run(TimePoint::from_sec(20));
  EXPECT_GT(f.session->server().retransmissions(), 0);
  // Only base-layer packets qualify; upper-layer losses are never resent.
  // (Indirect check: retransmissions are bounded by total base losses.)
  EXPECT_LE(f.session->server().retransmissions(),
            f.session->controller().losses_detected());
}

TEST(Retransmission, ImprovesDeliveredBaseBytes) {
  // With the same loss pattern, retransmission delivers more base-layer
  // media to the client (holes filled) without harming stall behaviour.
  auto base_goodput = [](int retransmit_below) {
    RetxFixture f(retransmit_below, 0.08);
    int64_t base_bytes = 0;
    f.session->ack_sink().set_consumer([&](const sim::Packet& p) {
      f.session->client().on_data(p);
      if (p.layer == 0) base_bytes += p.size_bytes;
    });
    f.net.run(TimePoint::from_sec(30));
    return base_bytes;
  };
  EXPECT_GT(base_goodput(1), base_goodput(0));
}

TEST(Retransmission, AbandonsWhenDeadlinePassed) {
  // A hostile loss rate with thin buffers: some retransmissions are not
  // worth sending any more. The counter must reflect the triage.
  RetxFixture f(1, 0.3, 17);
  f.net.run(TimePoint::from_sec(30));
  EXPECT_GT(f.session->server().retransmissions() +
                f.session->server().retransmissions_abandoned(),
            0);
}

}  // namespace
}  // namespace qa::app
