// End-to-end integration: the full stack (RAP + QA + dumbbell + competing
// traffic) must deliver the paper's core promises on a small workload.
#include <gtest/gtest.h>

#include <limits>

#include "app/experiment.h"
#include "app/session.h"
#include "sim/topology.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/rng.h"

namespace qa::app {
namespace {

ExperimentParams small_t1() {
  ExperimentParams p;
  p.rap_flows = 3;
  p.tcp_flows = 3;
  p.bottleneck = Rate::megabits_per_sec(2.4);  // 300 kB/s, ~50 kB/s share
  p.duration_sec = 30;
  p.stream_layers = 6;
  // Scale the stream to the faster link: C = 10 kB/s puts the ~50 kB/s fair
  // share at 4-5 layers of the 6 available.
  p.layer_rate = Rate::kilobytes_per_sec(10);
  p.packet_size = 1000;
  return p;
}

TEST(Integration, QaFlowStreamsAndAddsLayers) {
  ExperimentParams p = small_t1();
  tracedrive::RunSeries series;
  p.series = &series;
  const ExperimentResult r = run_experiment(p);
  EXPECT_GT(r.qa_packets_sent, 500);
  // Quality climbed past the base layer at some point.
  double max_layers = 0;
  for (double layers : series.layers) {
    max_layers = std::max(max_layers, layers);
  }
  EXPECT_GE(max_layers, 2.0);
}

TEST(Integration, BaseLayerNeverStallsAfterStartup) {
  const ExperimentResult r = run_experiment(small_t1());
  EXPECT_EQ(r.client_base_stall, TimeDelta::zero());
}

TEST(Integration, CongestionControlStaysFair) {
  const ExperimentResult r = run_experiment(small_t1());
  // The QA flow's mean rate should be within a factor ~3 of the fair share
  // (RAP without fine grain is aggressive but bounded).
  const double fair = 300'000.0 / 6.0;
  EXPECT_GT(r.qa_mean_rate_bps, fair / 3);
  EXPECT_LT(r.qa_mean_rate_bps, fair * 3);
}

TEST(Integration, MirrorTracksClientBuffers) {
  const ExperimentResult r = run_experiment(small_t1());
  // Sender-side mirror leads the client by roughly the in-flight data
  // (~1 RTT of rate) plus unreported losses; allow a generous bound.
  const double divergence =
      std::abs(r.final_mirror_total_buffer - r.final_client_total_buffer);
  EXPECT_LT(divergence, 20'000.0)
      << "mirror=" << r.final_mirror_total_buffer
      << " client=" << r.final_client_total_buffer;
}

TEST(Integration, DropsAreEfficient) {
  ExperimentParams p = small_t1();
  p.duration_sec = 60;
  const ExperimentResult r = run_experiment(p);
  if (!r.metrics.drops().empty()) {
    EXPECT_GT(r.metrics.mean_efficiency(), 0.9);
  }
}

TEST(Integration, DeterministicForFixedSeed) {
  ExperimentParams p = small_t1();
  tracedrive::RunSeries sa, sb;
  p.series = &sa;
  const ExperimentResult a = run_experiment(p);
  p.series = &sb;
  const ExperimentResult b = run_experiment(p);
  EXPECT_EQ(a.qa_packets_sent, b.qa_packets_sent);
  EXPECT_EQ(a.qa_backoffs, b.qa_backoffs);
  EXPECT_DOUBLE_EQ(a.final_mirror_total_buffer, b.final_mirror_total_buffer);
  ASSERT_EQ(sa.layers.size(), sb.layers.size());
  for (size_t i = 0; i < sa.layers.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa.layers[i], sb.layers[i]);
  }
}

TEST(Integration, DifferentSeedsDiffer) {
  ExperimentParams p = small_t1();
  const ExperimentResult a = run_experiment(p);
  p.seed = 99;
  const ExperimentResult b = run_experiment(p);
  EXPECT_NE(a.qa_packets_sent, b.qa_packets_sent);
}

TEST(Integration, CbrStepForcesAndThenReleasesQuality) {
  ExperimentParams p = small_t1();
  p.duration_sec = 60;
  p.with_cbr = true;
  p.cbr_start_sec = 20;
  p.cbr_stop_sec = 40;
  const ExperimentResult r = run_experiment(p);
  // Mean quality during the CBR burst is below the mean before it.
  const double before = r.metrics.layer_series().time_average(
      TimePoint::from_sec(10), TimePoint::from_sec(20));
  const double during = r.metrics.layer_series().time_average(
      TimePoint::from_sec(25), TimePoint::from_sec(40));
  const double after = r.metrics.layer_series().time_average(
      TimePoint::from_sec(50), TimePoint::from_sec(60));
  EXPECT_LT(during, before);
  EXPECT_GT(after, during);
  // Even under the burst, the base layer survives. A sub-100ms glitch at
  // the shock instant is in-flight divergence (the queueing delay balloons
  // while packets are mid-flight), which no sender-side mechanism can see.
  EXPECT_LT(r.client_base_stall, TimeDelta::millis(100));
}

TEST(Integration, ClientPacketLogHasMonotonePlayout) {
  ExperimentParams p = small_t1();
  p.duration_sec = 10;
  p.keep_client_packet_log = true;
  const ExperimentResult r = run_experiment(p);
  ASSERT_FALSE(r.client_packet_log.empty());
  for (const auto& rec : r.client_packet_log) {
    EXPECT_GE(rec.playout, rec.arrival);
    EXPECT_GE(rec.layer, 0);
  }
}

TEST(Integration, SessionWiringDeliversVideoPackets) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = Rate::kilobytes_per_sec(50);
  sim::Dumbbell d = sim::build_dumbbell(net, topo);
  SessionConfig cfg;
  cfg.adapter.max_layers = 4;
  Session session(net, d.left[0], d.right[0], cfg);
  net.run(TimePoint::from_sec(5));
  EXPECT_GT(session.client().packets_received(), 0);
  EXPECT_GE(session.client().layers_seen(), 1);
  EXPECT_EQ(session.server().adapter().active_layers() >= 1, true);
}

// Field-by-field, bit-exact equality of two runs' adapter metrics.
void expect_same_metrics(const core::AdapterMetrics& a,
                         const core::AdapterMetrics& b) {
  ASSERT_EQ(a.drops().size(), b.drops().size());
  for (size_t i = 0; i < a.drops().size(); ++i) {
    const core::DropEvent& x = a.drops()[i];
    const core::DropEvent& y = b.drops()[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.layer, y.layer);
    EXPECT_EQ(x.dropped_buf, y.dropped_buf);
    EXPECT_EQ(x.total_buf, y.total_buf);
    EXPECT_EQ(x.required_buf, y.required_buf);
    EXPECT_EQ(x.poor_distribution, y.poor_distribution);
  }
  ASSERT_EQ(a.adds().size(), b.adds().size());
  for (size_t i = 0; i < a.adds().size(); ++i) {
    EXPECT_EQ(a.adds()[i].time, b.adds()[i].time);
    EXPECT_EQ(a.adds()[i].new_active_layers, b.adds()[i].new_active_layers);
  }
  const SeriesView x = a.layer_series().view();
  const SeriesView y = b.layer_series().view();
  ASSERT_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x.times[i], y.times[i]);
    EXPECT_EQ(x.values[i], y.values[i]);
  }
}

TEST(SeriesRequest, ChangesNoExperimentResultField) {
  ExperimentParams p = ExperimentParams::t1(/*kmax=*/2);
  p.duration_sec = 60;
  p.keep_client_packet_log = true;
  const ExperimentResult a = run_experiment(p);
  tracedrive::RunSeries series;
  p.series = &series;
  const ExperimentResult b = run_experiment(p);
  ASSERT_EQ(series.times.size(), 600u);

  expect_same_metrics(a.metrics, b.metrics);
  EXPECT_GT(a.metrics.quality_changes(), 0);
  EXPECT_EQ(a.qa_packets_sent, b.qa_packets_sent);
  EXPECT_EQ(a.qa_losses, b.qa_losses);
  EXPECT_EQ(a.qa_backoffs, b.qa_backoffs);
  EXPECT_EQ(a.qa_mean_rate_bps, b.qa_mean_rate_bps);
  EXPECT_EQ(a.client_base_stall, b.client_base_stall);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(a.rebuffer_time, b.rebuffer_time);
  EXPECT_EQ(a.rebuffer_max_recovery, b.rebuffer_max_recovery);
  EXPECT_EQ(a.final_mirror_total_buffer, b.final_mirror_total_buffer);
  EXPECT_EQ(a.final_client_total_buffer, b.final_client_total_buffer);
  EXPECT_EQ(a.mean_rap_competitor_rate_bps, b.mean_rap_competitor_rate_bps);
  EXPECT_EQ(a.mean_tcp_rate_bps, b.mean_tcp_rate_bps);
  ASSERT_EQ(a.client_packet_log.size(), b.client_packet_log.size());
  ASSERT_FALSE(a.client_packet_log.empty());
  for (size_t i = 0; i < a.client_packet_log.size(); ++i) {
    const VideoClient::PacketRecord& x = a.client_packet_log[i];
    const VideoClient::PacketRecord& y = b.client_packet_log[i];
    EXPECT_EQ(x.layer, y.layer);
    EXPECT_EQ(x.layer_seq, y.layer_seq);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.playout, y.playout);
  }
}

TEST(SeriesRequest, ChangesNoTraceRunResultField) {
  Rng rng(42);
  const core::AimdTrajectory traj = tracedrive::random_backoff_trajectory(
      30'000, 8'000, 70'000, 120, 8.0, rng);
  core::AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 8;
  cfg.kmax = 3;
  const tracedrive::TraceRunResult a =
      tracedrive::run_trace(traj, cfg, 120, 250, 0.1,
                            /*keep_packet_log=*/true);
  tracedrive::RunSeries series;
  const tracedrive::TraceRunResult b = tracedrive::run_trace(
      traj, cfg, 120, 250, 0.1, /*keep_packet_log=*/true, &series);
  ASSERT_GE(series.times.size(), 1'199u);

  expect_same_metrics(a.metrics, b.metrics);
  EXPECT_GT(a.metrics.quality_changes(), 0);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.base_stall, b.base_stall);
  EXPECT_EQ(a.underflow_events, b.underflow_events);
  ASSERT_EQ(a.packet_log.size(), b.packet_log.size());
  ASSERT_FALSE(a.packet_log.empty());
  for (size_t i = 0; i < a.packet_log.size(); ++i) {
    const tracedrive::TracePacket& x = a.packet_log[i];
    const tracedrive::TracePacket& y = b.packet_log[i];
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.layer, y.layer);
    EXPECT_EQ(x.layer_seq, y.layer_seq);
    EXPECT_EQ(x.playout, y.playout);
  }
}

TEST(IntegrationDeathTest, RejectsAnUnusableSampleStep) {
  for (const double dt : {0.0, -0.1, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentParams p = ExperimentParams::fig2();
    p.sample_dt_sec = dt;
    EXPECT_DEATH(run_experiment(p), "sample_dt_sec") << "dt=" << dt;
  }
}

}  // namespace
}  // namespace qa::app
