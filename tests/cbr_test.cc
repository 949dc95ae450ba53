#include "cbr/cbr.h"

#include <gtest/gtest.h>

#include <memory>

#include "app/experiment.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace qa::cbr {
namespace {

TEST(CbrSource, SendsAtConfiguredRate) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.bottleneck_bw = Rate::megabits_per_sec(8);
  sim::Dumbbell d = sim::build_dumbbell(net, topo);
  CbrParams params;
  params.rate = Rate::kilobytes_per_sec(50);
  params.packet_size = 1000;
  const sim::FlowId flow = net.allocate_flow_id();
  auto* src = net.adopt_agent(
      d.left[0], flow,
      std::make_unique<CbrSource>(&net.scheduler(), d.left[0],
                                  d.right[0]->id(), flow, params));
  auto* sink = net.adopt_agent(d.right[0], flow, std::make_unique<CbrSink>());
  net.run(TimePoint::from_sec(10));
  // 50 kB/s / 1000 B = 50 pkt/s for 10 s = 500 packets (+-1 boundary).
  EXPECT_NEAR(static_cast<double>(src->packets_sent()), 500.0, 2.0);
  EXPECT_NEAR(static_cast<double>(sink->packets_received()), 500.0, 2.0);
}

TEST(CbrSource, HonorsStartAndStopWindow) {
  sim::Network net;
  sim::Dumbbell d = sim::build_dumbbell(net, sim::DumbbellParams{});
  CbrParams params;
  params.rate = Rate::kilobytes_per_sec(10);
  params.packet_size = 1000;
  params.start_time = TimePoint::from_sec(2.0);
  params.stop_time = TimePoint::from_sec(4.0);
  const sim::FlowId flow = net.allocate_flow_id();
  auto* src = net.adopt_agent(
      d.left[0], flow,
      std::make_unique<CbrSource>(&net.scheduler(), d.left[0],
                                  d.right[0]->id(), flow, params));
  net.adopt_agent(d.right[0], flow, std::make_unique<CbrSink>());

  net.run(TimePoint::from_sec(1.9));
  EXPECT_EQ(src->packets_sent(), 0);
  net.run(TimePoint::from_sec(10));
  // 2 s window at 10 pkt/s = ~20 packets; nothing after the stop time.
  EXPECT_NEAR(static_cast<double>(src->packets_sent()), 20.0, 2.0);
}

// Cross-traffic responsiveness (fig 13 in miniature): when the CBR source
// switches on mid-run, the quality-adaptive RAP flow must yield bandwidth
// during the burst and recover after it — the CBR source itself is
// unresponsive, so all of the adjustment shows up in the QA flow's rate.
TEST(CbrSource, QaRapYieldsDuringCbrBurstAndRecovers) {
  app::ExperimentParams params;
  params.rap_flows = 1;
  params.tcp_flows = 0;
  params.with_cbr = true;
  params.cbr_fraction = 0.5;
  params.cbr_start_sec = 10;
  params.cbr_stop_sec = 20;
  params.duration_sec = 30;
  params.seed = 2;
  tracedrive::RunSeries series;
  params.series = &series;
  app::run_experiment(params);

  // Skip the first seconds (startup ramp) and the first moments after each
  // transition (reaction time).
  const SeriesView rate = series.view(series.rate);
  const double before =
      rate.time_average(TimePoint::from_sec(4), TimePoint::from_sec(10));
  const double during =
      rate.time_average(TimePoint::from_sec(12), TimePoint::from_sec(20));
  const double after =
      rate.time_average(TimePoint::from_sec(24), TimePoint::from_sec(30));
  ASSERT_GT(before, 0);
  EXPECT_LT(during, before * 0.85);  // yields while the CBR burst holds
  EXPECT_GT(after, during);          // claims bandwidth back afterwards
}

TEST(CbrSource, IgnoresIncomingPackets) {
  sim::Network net;
  sim::Dumbbell d = sim::build_dumbbell(net, sim::DumbbellParams{});
  CbrParams params;
  const sim::FlowId flow = net.allocate_flow_id();
  auto* src = net.adopt_agent(
      d.left[0], flow,
      std::make_unique<CbrSource>(&net.scheduler(), d.left[0],
                                  d.right[0]->id(), flow, params));
  sim::Packet p;
  src->on_packet(p);  // must be a no-op
  EXPECT_EQ(src->packets_sent(), 0);
}

}  // namespace
}  // namespace qa::cbr
