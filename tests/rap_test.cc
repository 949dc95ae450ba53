#include "cc/rap_source.h"

#include <gtest/gtest.h>

#include <memory>

#include "cc/ack_sink.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/stats.h"

namespace qa::cc {
namespace {

struct RapPair {
  sim::Network net;
  sim::Dumbbell d;
  RapSource* src = nullptr;
  AckSink* sink = nullptr;

  explicit RapPair(Rate bottleneck = Rate::kilobytes_per_sec(50),
                   cc::CcParams params = {}) {
    sim::DumbbellParams topo;
    topo.pairs = 1;
    topo.bottleneck_bw = bottleneck;
    topo.rtt = TimeDelta::millis(40);
    d = sim::build_dumbbell(net, topo);
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

// Records a source's events. `increases` holds every rate change, so it
// reads as increases only where the run has no loss (the rate never falls).
class BackoffRecorder {
 public:
  explicit BackoffRecorder(RapSource& src)
      : backoff_sub_(src.on_backoff().subscribe_scoped(
            [this](TimePoint, Rate r) { backoffs.push_back(r.bps()); })),
        rate_sub_(src.on_rate_change().subscribe_scoped(
            [this](TimePoint, Rate r) { increases.push_back(r.bps()); })),
        loss_sub_(src.on_loss().subscribe_scoped(
            [this](TimePoint, const sim::Packet& p, bool) {
              lost_seqs.push_back(p.seq);
            })) {}
  std::vector<double> backoffs;
  std::vector<double> increases;
  std::vector<int64_t> lost_seqs;

 private:
  ScopedSubscription backoff_sub_;
  ScopedSubscription rate_sub_;
  ScopedSubscription loss_sub_;
};

TEST(RapSource, AdditiveIncreaseWithoutLoss) {
  // Huge bottleneck: no loss; rate must grow linearly, ~1 pkt/RTT per RTT.
  RapPair pair(Rate::megabits_per_sec(100));
  BackoffRecorder rec(*pair.src);
  pair.net.run(TimePoint::from_sec(2));
  EXPECT_TRUE(rec.backoffs.empty());
  EXPECT_GT(rec.increases.size(), 10u);
  // Increases are monotone.
  for (size_t i = 1; i < rec.increases.size(); ++i) {
    EXPECT_GT(rec.increases[i], rec.increases[i - 1]);
  }
  // After 2 s at RTT ~40 ms: ~50 steps of P/SRTT each. SRTT is close to
  // 40 ms so the rate should have grown by roughly 50 * 25 kB/s, bounded
  // loosely here.
  EXPECT_GT(pair.src->rate().kBps(), 100.0);
}

TEST(RapSource, HalvesRateOnLoss) {
  RapPair pair(Rate::kilobytes_per_sec(50));
  BackoffRecorder rec(*pair.src);
  pair.net.run(TimePoint::from_sec(10));
  ASSERT_GT(rec.backoffs.size(), 0u) << "bottleneck should force losses";
  ASSERT_GT(rec.lost_seqs.size(), 0u);
}

TEST(RapSource, OscillatesAroundBottleneckBandwidth) {
  // Fig 1: the sawtooth hunts around the fair share (= full link here).
  RapPair pair(Rate::kilobytes_per_sec(50));
  pair.net.run(TimePoint::from_sec(5));  // warm-up
  RunningStats rate;
  for (int i = 0; i < 300; ++i) {
    pair.net.run(TimePoint::from_sec(5 + 0.1 * i));
    rate.add(pair.src->rate().bps());
  }
  // Mean within 40% of link rate; peaks above, troughs below.
  EXPECT_NEAR(rate.mean(), 50'000, 20'000);
  EXPECT_GT(rate.max(), 50'000);
  EXPECT_LT(rate.min(), 50'000);
}

TEST(RapSource, DeliversApproximatelyLinkRate) {
  RapPair pair(Rate::kilobytes_per_sec(50));
  pair.net.run(TimePoint::from_sec(30));
  // Goodput within [60%, 105%] of the 50 kB/s bottleneck over 30 s.
  const double goodput =
      static_cast<double>(pair.sink->bytes_received()) / 30.0;
  EXPECT_GT(goodput, 30'000);
  EXPECT_LT(goodput, 52'500);
}

TEST(RapSource, OneBackoffPerCongestionEvent) {
  RapPair pair(Rate::kilobytes_per_sec(50));
  BackoffRecorder rec(*pair.src);
  pair.net.run(TimePoint::from_sec(20));
  // Cluster suppression: strictly fewer backoffs than detected losses is
  // expected under drop-tail burst losses; at minimum never more.
  EXPECT_LE(rec.backoffs.size(), rec.lost_seqs.size());
  EXPECT_EQ(static_cast<int64_t>(rec.backoffs.size()),
            pair.src->backoffs());
}

TEST(RapSource, RateFloorRespected) {
  cc::CcParams params;
  params.min_rate = Rate::bytes_per_sec(2000);
  params.initial_rate = Rate::bytes_per_sec(2000);
  // A bottleneck so slow that AIMD would push below the floor.
  RapPair pair(Rate::bytes_per_sec(2500), params);
  pair.net.run(TimePoint::from_sec(20));
  EXPECT_GE(pair.src->rate().bps(), 2000.0);
}

TEST(RapSource, SlopeMatchesPacketPerSrttSquared) {
  RapPair pair(Rate::megabits_per_sec(100));
  pair.net.run(TimePoint::from_sec(2));
  const double srtt = pair.src->srtt().sec();
  EXPECT_NEAR(pair.src->slope_bps_per_sec(), 1000.0 / (srtt * srtt), 1.0);
}

TEST(RapSource, PayloadTaggerInvokedForEveryDataPacket) {
  RapPair pair(Rate::kilobytes_per_sec(50));
  int tagged = 0;
  pair.src->set_payload_tagger([&](sim::Packet& p) {
    p.layer = 2;
    ++tagged;
  });
  pair.net.run(TimePoint::from_sec(2));
  EXPECT_EQ(tagged, pair.src->packets_sent());
  EXPECT_GT(tagged, 0);
}

TEST(AckSink, AcksEveryPacketWithEcho) {
  RapPair pair(Rate::megabits_per_sec(10));
  pair.net.run(TimePoint::from_sec(1));
  EXPECT_GT(pair.sink->packets_received(), 0);
  // RTT estimation converged (echo worked): srtt near topology RTT.
  EXPECT_GT(pair.src->srtt(), TimeDelta::millis(35));
  EXPECT_LT(pair.src->srtt(), TimeDelta::millis(80));
}

TEST(RapSource, TwoFlowsShareFairly) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 2;
  topo.bottleneck_bw = Rate::kilobytes_per_sec(100);
  topo.rtt = TimeDelta::millis(40);
  sim::Dumbbell d = sim::build_dumbbell(net, topo);

  std::vector<AckSink*> sinks;
  for (int i = 0; i < 2; ++i) {
    const sim::FlowId flow = net.allocate_flow_id();
    cc::CcParams params;
    params.start_time = TimePoint::from_sec(0.1 * i);
    net.adopt_agent(d.left[i], flow,
                    std::make_unique<RapSource>(&net.scheduler(), d.left[i],
                                                d.right[i]->id(), flow,
                                                params));
    sinks.push_back(net.adopt_agent(
        d.right[i], flow,
        std::make_unique<AckSink>(&net.scheduler(), d.right[i])));
  }
  net.run(TimePoint::from_sec(40));
  const double g0 = static_cast<double>(sinks[0]->bytes_received());
  const double g1 = static_cast<double>(sinks[1]->bytes_received());
  // Jain-style fairness: neither flow more than 2x the other.
  EXPECT_LT(std::max(g0, g1) / std::min(g0, g1), 2.0);
}

TEST(RapSource, StartTimeDefersTransmission) {
  cc::CcParams params;
  params.start_time = TimePoint::from_sec(1.0);
  RapPair pair(Rate::kilobytes_per_sec(50), params);
  pair.net.run(TimePoint::from_sec(0.9));
  EXPECT_EQ(pair.src->packets_sent(), 0);
  pair.net.run(TimePoint::from_sec(2));
  EXPECT_GT(pair.src->packets_sent(), 0);
}

}  // namespace
}  // namespace qa::cc
