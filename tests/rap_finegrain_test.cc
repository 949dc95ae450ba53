// The RAP variant WITH fine-grain adaptation (the paper evaluates the
// variant without it; ours is implemented behind a flag as an extension).
// Fine grain stretches the inter-packet gap when the short-term RTT rises
// above the long-term average, yielding a gentler instantaneous rate under
// incipient queueing.
#include <gtest/gtest.h>

#include <memory>

#include "rap/rap_sink.h"
#include "rap/rap_source.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/stats.h"

namespace qa::rap {
namespace {

struct Pair {
  sim::Network net;
  sim::Dumbbell d;
  RapSource* src = nullptr;
  RapSink* sink = nullptr;

  explicit Pair(bool fine_grain, Rate bottleneck = Rate::kilobytes_per_sec(30)) {
    sim::DumbbellParams topo;
    topo.pairs = 1;
    topo.bottleneck_bw = bottleneck;
    topo.rtt = TimeDelta::millis(40);
    topo.bottleneck_queue_bytes = 15'000;  // deep: visible RTT variation
    d = sim::build_dumbbell(net, topo);
    cc::CcParams params;
    params.fine_grain = fine_grain;
    params.packet_size = 500;
    const sim::FlowId flow = net.allocate_flow_id();
    src = net.adopt_agent(
        d.left[0], flow,
        std::make_unique<RapSource>(&net.scheduler(), d.left[0],
                                    d.right[0]->id(), flow, params));
    sink = net.adopt_agent(d.right[0], flow,
                           std::make_unique<RapSink>(&net.scheduler(),
                                                     d.right[0]));
  }
};

TEST(RapFineGrain, StillDeliversNearLinkRate) {
  Pair pair(/*fine_grain=*/true);
  pair.net.run(TimePoint::from_sec(30));
  const double goodput =
      static_cast<double>(pair.sink->bytes_received()) / 30.0;
  EXPECT_GT(goodput, 18'000.0);   // > 60% of the 30 kB/s link
  EXPECT_LE(goodput, 31'000.0);
}

TEST(RapFineGrain, ReducesLossesVersusPlainRap) {
  Pair plain(false), fine(true);
  plain.net.run(TimePoint::from_sec(30));
  fine.net.run(TimePoint::from_sec(30));
  // The fine-grain variant backs off the pacing as the queue builds, so it
  // should lose no more packets than plain RAP on the same path.
  EXPECT_LE(fine.src->losses_detected(), plain.src->losses_detected());
}

TEST(RapFineGrain, BothVariantsConvergeRttEstimates) {
  Pair pair(true);
  pair.net.run(TimePoint::from_sec(10));
  EXPECT_GT(pair.src->srtt(), TimeDelta::millis(35));
  EXPECT_LT(pair.src->srtt(), TimeDelta::millis(700));
}

}  // namespace
}  // namespace qa::rap
