// Movie playback under churning cross traffic.
//
// The paper's target environment (§1.1): a server playing a full-length
// stream to a client whose path crosses a busy backbone link. Here a
// two-minute session shares an 800 kb/s bottleneck with TCP flows that
// come and go, so the fair share moves throughout the session. The example
// prints a quality/buffer timeline and an end-of-session viewer report —
// the kind of output a streaming operator would log.
//
//   $ ./movie_playback
#include <cstdio>
#include <memory>

#include "app/session.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "util/rng.h"

using namespace qa;

int main() {
  const double duration = 120.0;

  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 7;  // the QA pair + six TCP pairs
  topo.bottleneck_bw = Rate::kilobits_per_sec(800);
  topo.rtt = TimeDelta::millis(40);
  topo.bottleneck_queue_bytes = 50'000;
  sim::Dumbbell d = sim::build_dumbbell(net, topo);

  app::SessionConfig cfg;
  cfg.adapter.max_layers = 8;
  cfg.adapter.consumption_rate = 2'000;
  cfg.adapter.kmax = 3;
  cfg.adapter.playout_delay = TimeDelta::seconds(2);
  cfg.cc.packet_size = 250;
  cfg.cc.initial_rate = Rate::bytes_per_sec(2'000);
  app::Session session(net, d.left[0], d.right[0], cfg);

  // Churning TCP cross traffic: each flow runs for a window, then the next
  // starts — the fair share seen by the stream keeps moving.
  Rng rng(7);
  for (int i = 1; i < topo.pairs; ++i) {
    tcp::TcpParams tp;
    tp.mss_bytes = 500;
    tp.start_time = TimePoint::from_sec(rng.uniform(0.0, duration * 0.7));
    const sim::FlowId flow = net.allocate_flow_id();
    net.adopt_agent(d.left[i], flow,
                    std::make_unique<tcp::TcpSource>(&net.scheduler(),
                                                     d.left[i],
                                                     d.right[i]->id(), flow,
                                                     tp));
    net.adopt_agent(d.right[i], flow,
                    std::make_unique<tcp::TcpSink>(&net.scheduler(),
                                                   d.right[i]));
  }

  // Timeline printer: every 10 s of simulated time.
  std::printf("  t(s)  rate(kB/s)  layers  buffered(B)  stalls(s)\n");
  for (int s = 10; s <= static_cast<int>(duration); s += 10) {
    net.scheduler().schedule_at(TimePoint::from_sec(s), [&, s] {
      session.client().sync();
      std::printf("%6d  %10.2f  %6d  %11.0f  %9.3f\n", s,
                  session.controller().rate().kBps(),
                  session.server().adapter().active_layers(),
                  session.server().adapter().receiver().total_buffer(),
                  session.client().base_stall().sec());
    });
  }

  net.run(TimePoint::from_sec(duration));
  session.client().sync();

  const auto& m = session.server().adapter().metrics();
  std::printf("\nviewer report after %.0f s:\n", duration);
  std::printf("  mean quality      : %.2f layers\n",
              m.mean_quality(TimePoint::from_sec(5),
                             TimePoint::from_sec(duration)));
  std::printf("  quality changes   : %d (%.1f per minute)\n",
              m.quality_changes(),
              m.quality_changes() * 60.0 / duration);
  std::printf("  playback stalls   : %.3f s total\n",
              session.client().base_stall().sec());
  std::printf("  buffering efficiency on drops: %.2f%%\n",
              100.0 * m.mean_efficiency());
  return 0;
}
