#include "app/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "app/observability.h"
#include "cbr/cbr.h"
#include "cc/ack_sink.h"
#include "cc/rap_source.h"
#include "sim/fault.h"
#include "sim/loss_model.h"
#include "sim/topology.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "util/logging.h"
#include "util/rng.h"

namespace qa::app {

ExperimentParams ExperimentParams::t1(int kmax, uint64_t seed) {
  ExperimentParams p;
  p.kmax = kmax;
  p.seed = seed;
  return p;
}

ExperimentParams ExperimentParams::t2(int kmax, uint64_t seed) {
  ExperimentParams p;
  p.kmax = kmax;
  p.seed = seed;
  p.duration_sec = 90;
  p.with_cbr = true;
  return p;
}

ExperimentParams ExperimentParams::fig2() {
  ExperimentParams p;
  p.bottleneck = Rate::kilobits_per_sec(240);
  p.rap_flows = 1;
  p.tcp_flows = 0;
  p.duration_sec = 20;
  p.layer_rate = Rate::bytes_per_sec(10'000);
  p.kmax = 1;
  return p;
}

ExperimentResult run_experiment(const ExperimentParams& params) {
  QA_CHECK(params.rap_flows >= 1);
  QA_CHECK(params.duration_sec > 0);
  QA_CHECK(params.sample_dt_sec > 0 && std::isfinite(params.sample_dt_sec));

  sim::Network net;
  Rng rng(params.seed);

  const int pairs =
      params.rap_flows + params.tcp_flows + (params.with_cbr ? 1 : 0);
  sim::DumbbellParams topo;
  topo.pairs = pairs;
  topo.bottleneck_bw = params.bottleneck;
  topo.rtt = params.rtt;
  topo.bottleneck_queue_bytes = params.bottleneck_queue_bytes;
  topo.red = params.red_bottleneck;
  topo.red_seed = params.seed * 977 + 13;
  const sim::Dumbbell d = sim::build_dumbbell(net, topo);

  // Optional sweep axes. Seeds are drawn only when the axis is enabled so
  // the default configuration's draw sequence (and therefore every golden
  // run) is unchanged.
  QA_CHECK(params.bottleneck_loss_rate >= 0 &&
           params.bottleneck_loss_rate < 1);
  if (params.bottleneck_loss_rate > 0) {
    d.bottleneck->set_loss_model(std::make_unique<sim::BernoulliLoss>(
        params.bottleneck_loss_rate, rng.next_u64()));
  }
  std::unique_ptr<sim::FaultInjector> fault_injector;
  if (params.random_faults > 0) {
    fault_injector = std::make_unique<sim::FaultInjector>(&net.scheduler());
    sim::ChaosProfile profile;
    profile.start = TimePoint::from_sec(params.duration_sec * 0.25);
    profile.window = TimeDelta::from_sec(params.duration_sec * 0.5);
    profile.faults = params.random_faults;
    Rng fault_rng(rng.next_u64());
    sim::inject_random_faults(*fault_injector, d.bottleneck,
                              d.bottleneck_reverse, fault_rng, profile);
  }

  // --- The quality-adaptive flow (pair 0). -------------------------------
  SessionConfig scfg;
  scfg.backend = params.backend;
  scfg.adapter.consumption_rate = params.layer_rate.bps();
  scfg.adapter.max_layers = params.stream_layers;
  scfg.adapter.kmax = params.kmax;
  scfg.adapter.allocation = params.allocation;
  scfg.adapter.monotone = params.monotone;
  scfg.cc.packet_size = params.packet_size;
  scfg.cc.initial_rate = params.layer_rate;  // start near one layer's worth
  scfg.cc.initial_rtt = params.rtt;
  scfg.cc.seed = params.seed;  // determinism contract: plumbed, not literal
  scfg.keep_client_packet_log = params.keep_client_packet_log;
  Session session(net, d.left[0], d.right[0], scfg);

  if (params.observability != nullptr) {
    params.observability->attach_scheduler(net.scheduler());
    params.observability->attach_link(*d.bottleneck, "bottleneck");
    params.observability->attach_session(session);
    // Faults emit at activation time (not schedule time), so attaching
    // after the schedule was drawn still observes every event.
    if (fault_injector) {
      params.observability->attach_fault_injector(*fault_injector);
    }
  }

  // --- Competing plain RAP flows (pairs 1..rap_flows-1). -----------------
  std::vector<cc::RapSource*> rap_competitors;
  for (int i = 1; i < params.rap_flows; ++i) {
    cc::CcParams rp;
    rp.packet_size = params.packet_size;
    rp.initial_rate = params.layer_rate;
    rp.initial_rtt = params.rtt;
    rp.start_time =
        TimePoint::from_sec(rng.uniform(0.0, 1.0));  // desynchronize
    const sim::FlowId flow = net.allocate_flow_id();
    auto* src = net.adopt_agent(
        d.left[i], flow,
        std::make_unique<cc::RapSource>(&net.scheduler(), d.left[i],
                                        d.right[i]->id(), flow, rp));
    net.adopt_agent(d.right[i], flow,
                    std::make_unique<cc::AckSink>(&net.scheduler(),
                                                  d.right[i]));
    rap_competitors.push_back(src);
  }

  // --- Competing TCP flows. ----------------------------------------------
  std::vector<tcp::TcpSource*> tcp_sources;
  for (int i = 0; i < params.tcp_flows; ++i) {
    const int pair = params.rap_flows + i;
    tcp::TcpParams tp;
    tp.mss_bytes = params.packet_size;
    tp.initial_rtt = params.rtt;
    tp.start_time = TimePoint::from_sec(rng.uniform(0.0, 1.0));
    const sim::FlowId flow = net.allocate_flow_id();
    auto* src = net.adopt_agent(
        d.left[pair], flow,
        std::make_unique<tcp::TcpSource>(&net.scheduler(), d.left[pair],
                                         d.right[pair]->id(), flow, tp));
    net.adopt_agent(d.right[pair], flow,
                    std::make_unique<tcp::TcpSink>(&net.scheduler(),
                                                   d.right[pair]));
    tcp_sources.push_back(src);
  }

  // --- Optional CBR step (fig 13). ----------------------------------------
  if (params.with_cbr) {
    const int pair = pairs - 1;
    cbr::CbrParams cp;
    cp.rate = params.bottleneck * params.cbr_fraction;
    cp.packet_size = params.packet_size;
    cp.start_time = TimePoint::from_sec(params.cbr_start_sec);
    cp.stop_time = TimePoint::from_sec(params.cbr_stop_sec);
    const sim::FlowId flow = net.allocate_flow_id();
    net.adopt_agent(d.left[pair], flow,
                    std::make_unique<cbr::CbrSource>(&net.scheduler(),
                                                     d.left[pair],
                                                     d.right[pair]->id(),
                                                     flow, cp));
    net.adopt_agent(d.right[pair], flow, std::make_unique<cbr::CbrSink>());
  }

  // --- Series collection. --------------------------------------------------
  ExperimentResult result;
  const size_t n_layers = static_cast<size_t>(params.stream_layers);
  const double dt = params.sample_dt_sec;
  const int samples = static_cast<int>(params.duration_sec / dt);
  tracedrive::RunSeries* const series = params.series;
  // Per-layer bytes sent in the last window and buffer at the last sample;
  // read only for a requested table.
  std::vector<double> sent, prev_buf;
  if (series != nullptr) {
    *series = tracedrive::RunSeries(n_layers, static_cast<size_t>(samples));
    sent.resize(n_layers);
    prev_buf.resize(n_layers);
  }
  RunningStats qa_rate_stats;

  // One self-re-arming event walks the sample grid: tick s fires at
  // from_sec(s * dt) for s = 1..samples, and repeat_at keeps the tie order
  // those `samples` one-shots would have had, without holding them all in
  // the heap at once. Recording a sample allocates nothing: the table and
  // its per-layer scratch are sized above.
  int s = 1;
  if (samples >= 1) {
    net.scheduler().schedule_at(TimePoint::from_sec(dt), [&] {
      const auto& adapter = session.server().adapter();
      const double rate = session.controller().rate().bps();
      const int na = adapter.active_layers();
      // Keep the client's rebuffer state fresh even when no packets arrive
      // (a paused or starved stream still has to notice it is dry).
      session.client().sync();
      qa_rate_stats.add(rate);
      if (series != nullptr) {
        const auto& recv = adapter.receiver();
        series->times.push_back(TimePoint::from_sec(s * dt));
        series->rate.push_back(rate);
        series->consumption.push_back(static_cast<double>(na) *
                                      adapter.config().consumption_rate);
        series->layers.push_back(na);
        series->total_buffer.push_back(recv.total_buffer());
        session.server().take_window_sent(sent);
        for (size_t i = 0; i < n_layers; ++i) {
          const double buf = recv.buffer(static_cast<int>(i));
          series->layer_buffer[i].push_back(buf);
          series->layer_send_rate[i].push_back(sent[i] / dt);
          series->layer_drain_rate[i].push_back(
              std::max(0.0, (prev_buf[i] - buf) / dt));
          prev_buf[i] = buf;
        }
      }
      if (s < samples) {
        ++s;
        net.scheduler().repeat_at(TimePoint::from_sec(s * dt));
      }
    }, sim::EventCategory::kProbe);
  }

  net.run(TimePoint::from_sec(params.duration_sec));

  // --- Final bookkeeping. ---------------------------------------------------
  session.client().sync();
  auto& adapter = session.server().adapter();
  result.metrics = adapter.metrics();
  result.qa_packets_sent = session.controller().packets_sent();
  result.qa_losses = session.controller().losses_detected();
  result.qa_backoffs = session.controller().backoffs();
  result.qa_mean_rate_bps = qa_rate_stats.mean();
  result.client_base_stall = session.client().base_stall();
  const auto& rebuf = session.client().rebuffers();
  result.rebuffer_events = rebuf.count();
  result.rebuffer_time = rebuf.total_paused(net.scheduler().now());
  result.rebuffer_max_recovery = rebuf.max_time_to_recover();
  result.final_mirror_total_buffer = adapter.receiver().total_buffer();
  result.final_client_total_buffer = session.client().total_buffer();
  if (params.keep_client_packet_log) {
    result.client_packet_log = session.client().packet_log();
  }

  if (!rap_competitors.empty()) {
    double sum = 0;
    for (const auto* src : rap_competitors) sum += src->rate().bps();
    result.mean_rap_competitor_rate_bps =
        sum / static_cast<double>(rap_competitors.size());
  }
  if (!tcp_sources.empty()) {
    double sum = 0;
    for (const auto* src : tcp_sources) {
      sum += src->cwnd_segments() * params.packet_size / src->srtt().sec();
    }
    result.mean_tcp_rate_bps = sum / static_cast<double>(tcp_sources.size());
  }
  // The session, links, and scheduler all die with this frame; the hub's
  // final snapshot (and artifact flush) must happen before they do.
  if (params.observability != nullptr) params.observability->finish();
  return result;
}

}  // namespace qa::app
