// Quickstart: stream a layered video over RAP with quality adaptation.
//
// Builds a one-pair dumbbell, attaches a quality-adaptive session, runs ten
// seconds of simulated time, and prints what the viewer got. This is the
// smallest end-to-end use of the library.
//
//   $ ./quickstart
#include <cstdio>

#include "app/session.h"
#include "sim/network.h"
#include "sim/topology.h"

using namespace qa;

int main() {
  // 1. A network: one sender and one receiver around a 400 kb/s bottleneck.
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = Rate::kilobits_per_sec(400);
  topo.rtt = TimeDelta::millis(60);
  sim::Dumbbell dumbbell = sim::build_dumbbell(net, topo);

  // 2. A quality-adaptive streaming session: an 8-layer stream at 5 kB/s
  //    per layer, smoothing factor Kmax = 2, one second of startup delay.
  app::SessionConfig cfg;
  cfg.adapter.max_layers = 8;
  cfg.adapter.consumption_rate = 5'000;  // C: 5 kB/s per layer
  cfg.adapter.kmax = 2;
  cfg.adapter.playout_delay = TimeDelta::seconds(1);
  cfg.cc.packet_size = 500;
  cfg.cc.initial_rate = Rate::kilobytes_per_sec(5);
  app::Session session(net, dumbbell.left[0], dumbbell.right[0], cfg);

  // 3. Run 10 seconds of simulated time.
  net.run(TimePoint::from_sec(10));

  // 4. Report.
  session.client().sync();
  const auto& adapter = session.server().adapter();
  std::printf("after 10 s of streaming over a 50 kB/s bottleneck:\n");
  std::printf("  active layers        : %d of %d\n", adapter.active_layers(),
              cfg.adapter.max_layers);
  std::printf("  transmission rate    : %.1f kB/s\n",
              session.controller().rate().kBps());
  std::printf("  packets delivered    : %lld\n",
              static_cast<long long>(session.client().packets_received()));
  std::printf("  receiver buffering   : %.0f bytes (client ground truth)\n",
              session.client().total_buffer());
  std::printf("  playback stalls      : %.3f s\n",
              session.client().base_stall().sec());
  std::printf("  quality changes      : %d (adds %zu, drops %zu)\n",
              adapter.metrics().quality_changes(),
              adapter.metrics().adds().size(),
              adapter.metrics().drops().size());
  return 0;
}
