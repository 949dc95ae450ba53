// RAP under hostile conditions: lossy ACK path, forward-path blackouts,
// and bursty wire loss. The congestion controller must keep functioning
// (detect losses, back off, recover) rather than wedge or spin.
#include <gtest/gtest.h>

#include <memory>

#include "cc/ack_sink.h"
#include "cc/rap_source.h"
#include "sim/loss_model.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace qa::cc {
namespace {

struct Pair {
  sim::Network net;
  sim::Dumbbell d;
  RapSource* src = nullptr;
  AckSink* sink = nullptr;

  explicit Pair(Rate bottleneck = Rate::kilobytes_per_sec(40)) {
    sim::DumbbellParams topo;
    topo.pairs = 1;
    topo.bottleneck_bw = bottleneck;
    topo.rtt = TimeDelta::millis(40);
    d = sim::build_dumbbell(net, topo);
    cc::CcParams params;
    params.packet_size = 500;
    const sim::FlowId flow = net.allocate_flow_id();
    src = net.adopt_agent(
        d.left[0], flow,
        std::make_unique<RapSource>(&net.scheduler(), d.left[0],
                                    d.right[0]->id(), flow, params));
    sink = net.adopt_agent(d.right[0], flow,
                           std::make_unique<AckSink>(&net.scheduler(),
                                                     d.right[0]));
  }
};

TEST(RapRobustness, SurvivesAckPathLoss) {
  Pair pair;
  // 20% of ACKs vanish on the reverse bottleneck.
  pair.d.bottleneck_reverse->set_loss_model(
      std::make_unique<sim::BernoulliLoss>(0.2, 3));
  pair.net.run(TimePoint::from_sec(30));
  // The flow keeps delivering (ACK loss must not be mistaken for data
  // loss wholesale) at a meaningful fraction of the link.
  const double goodput =
      static_cast<double>(pair.sink->bytes_received()) / 30.0;
  EXPECT_GT(goodput, 15'000.0);
  EXPECT_GT(pair.src->packets_sent(), 500);
}

TEST(RapRobustness, RecoversFromForwardBlackout) {
  Pair pair;
  pair.net.run(TimePoint::from_sec(10));
  const int64_t before = pair.sink->packets_received();
  ASSERT_GT(before, 0);
  // Total forward blackout for 3 seconds: drop everything on the wire.
  pair.d.bottleneck->set_loss_model(
      std::make_unique<sim::BernoulliLoss>(1.0, 4));
  pair.net.run(TimePoint::from_sec(13));
  // Timeouts must have collapsed the rate toward the floor.
  EXPECT_LT(pair.src->rate().bps(), 5'000.0);
  // Clear the blackout: the flow must resume and re-grow.
  pair.d.bottleneck->set_loss_model(nullptr);
  pair.net.run(TimePoint::from_sec(25));
  EXPECT_GT(pair.sink->packets_received(), before + 300);
  EXPECT_GT(pair.src->rate().bps(), 15'000.0);
}

TEST(RapRobustness, HandlesBurstyWireLoss) {
  Pair pair;
  sim::GilbertElliottLoss::Params ge;
  ge.p_good_to_bad = 0.005;
  ge.p_bad_to_good = 0.1;
  ge.loss_bad = 0.5;
  pair.d.bottleneck->set_loss_model(
      std::make_unique<sim::GilbertElliottLoss>(ge, 5));
  pair.net.run(TimePoint::from_sec(30));
  // Bursts force repeated backoffs but never wedge the sender.
  EXPECT_GT(pair.src->backoffs(), 5);
  EXPECT_GT(pair.sink->packets_received(), 200);
  // Cluster suppression holds: one backoff per congestion event, so
  // backoffs stay well below detected losses under burst loss.
  EXPECT_LT(pair.src->backoffs(), pair.src->losses_detected());
}

TEST(RapRobustness, AckBlackoutDrivesSourceQuiescent) {
  Pair pair;
  pair.net.run(TimePoint::from_sec(10));
  ASSERT_GT(pair.src->rate().bps(), 5'000.0);  // warmed up well above floor
  ASSERT_FALSE(pair.src->quiescent());

  // Total ACK-path outage: data still flows, feedback does not.
  sim::OutagePolicy policy;
  policy.drop_in_flight = true;
  policy.drop_arrivals = true;
  pair.d.bottleneck_reverse->set_down(policy);
  pair.net.run(TimePoint::from_sec(14));
  const int64_t sent_at_14 = pair.src->packets_sent();
  const int64_t sink_at_14 = pair.sink->packets_received();
  pair.net.run(TimePoint::from_sec(20));

  // Starvation provably exceeded the threshold and the source is quiescent
  // at the rate floor.
  EXPECT_GE(pair.net.scheduler().now() - pair.src->last_ack_at(),
            pair.src->starvation_threshold());
  EXPECT_TRUE(pair.src->quiescent());
  EXPECT_EQ(pair.src->quiescence_entries(), 1);
  EXPECT_LE(pair.src->rate().bps(), 501.0);
  // Probing is exponentially backed off (cap 2 s): over six quiescent
  // seconds only a handful of probes go out...
  EXPECT_LE(pair.src->packets_sent() - sent_at_14, 8);
  // ...and they reach the sink, because the forward path is healthy.
  EXPECT_GT(pair.sink->packets_received(), sink_at_14);

  // Restore the feedback path: the first probe ACK exits quiescence with a
  // paced slow restart from the floor — never a burst. Probes are spaced up
  // to 2 s apart, so within the first half second at most one probe (plus
  // at most one floor-paced packet after the exit) can leave.
  const int64_t sent_at_restore = pair.src->packets_sent();
  pair.d.bottleneck_reverse->set_up();
  pair.net.run(TimePoint::from_sec(20.5));
  EXPECT_LE(pair.src->packets_sent() - sent_at_restore, 3);
  // By 25 s a probe has certainly been ACKed and the source is live again.
  pair.net.run(TimePoint::from_sec(25));
  EXPECT_FALSE(pair.src->quiescent());

  // Additive increase rebuilds the rate from the floor.
  pair.net.run(TimePoint::from_sec(45));
  EXPECT_GT(pair.src->rate().bps(), 15'000.0);
  EXPECT_EQ(pair.src->quiescence_entries(), 1);
}

TEST(RapRobustness, MinRateFloorUnderPersistentLoss) {
  Pair pair;
  pair.d.bottleneck->set_loss_model(
      std::make_unique<sim::BernoulliLoss>(0.6, 6));
  pair.net.run(TimePoint::from_sec(20));
  // AIMD would halve forever; the configured floor keeps the probe alive.
  EXPECT_GE(pair.src->rate().bps(), 499.0);
  EXPECT_GT(pair.src->packets_sent(), 20);
}

}  // namespace
}  // namespace qa::cc
