// Heterogeneous clients — the motivation of §1.2.
//
// One server plays the same 8-layer stream to three clients with very
// different access capacities (modem-class, midband, broadband). Each
// session adapts independently: the slow client settles on few layers, the
// fast one on many, and stalls stay short (the modem client's last about
// a tenth of a second over the minute). This also exercises the §3.1
// "2.9 layers" effect: with the surplus-ladder extension enabled, the
// modem-class client keeps a third layer active most of the time even
// though its average bandwidth cannot quite sustain three layers.
//
//   $ ./heterogeneous_clients
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "app/session.h"
#include "sim/network.h"

using namespace qa;

namespace {

struct ClientSpec {
  const char* name;
  Rate access;
};

}  // namespace

int main() {
  const ClientSpec specs[] = {
      {"modem   (4 kB/s)", Rate::bytes_per_sec(4'000)},
      {"midband (12 kB/s)", Rate::bytes_per_sec(12'000)},
      {"broadband (40 kB/s)", Rate::bytes_per_sec(40'000)},
  };
  const double duration = 60.0;

  sim::Network net;
  // A hub-and-spoke build: the server connects to a core router over a
  // fast link; each client hangs off the core over its own access link —
  // per-client bottlenecks, unlike the shared dumbbell.
  sim::Node* server_host = net.add_node("server");
  sim::Node* core = net.add_node("core");
  net.add_duplex_link(server_host, core, Rate::kilobytes_per_sec(1'000),
                      TimeDelta::millis(5), 1 << 20);

  // The server's uplink toward the core is the first link created.
  sim::Link* server_up = net.links()[0].get();

  std::vector<std::unique_ptr<app::Session>> sessions;
  std::vector<sim::Node*> client_hosts;
  for (const auto& spec : specs) {
    sim::Node* host = net.add_node(spec.name);
    // Access queue ~0.5 s at the access rate: deep enough for bursts,
    // shallow enough not to bloat the RTT into seconds.
    const int64_t queue_bytes =
        static_cast<int64_t>(spec.access.bytes_in(TimeDelta::millis(500)));
    auto [down, up] = net.add_duplex_link(core, host, spec.access,
                                          TimeDelta::millis(15), queue_bytes);
    (void)down;
    // Static routes: server reaches the client via the core (the core's
    // direct route was installed by add_duplex_link); the client reaches
    // the server over its own uplink.
    server_host->add_route(host->id(), server_up);
    host->add_route(server_host->id(), up);
    client_hosts.push_back(host);
  }

  for (sim::Node* host : client_hosts) {
    app::SessionConfig cfg;
    cfg.adapter.max_layers = 8;
    cfg.adapter.consumption_rate = 1'500;  // C = 1.5 kB/s per layer
    cfg.adapter.kmax = 2;
    cfg.adapter.surplus_ladder_depth = 4;  // the modem case of §3.1
    cfg.adapter.playout_delay = TimeDelta::seconds(2);
    cfg.cc.packet_size = 250;
    cfg.cc.initial_rate = Rate::bytes_per_sec(1'500);
    sessions.push_back(
        std::make_unique<app::Session>(net, server_host, host, cfg));
  }

  net.run(TimePoint::from_sec(duration));

  std::printf("one server, three access classes, after %.0f s:\n\n", duration);
  std::printf("  %-22s %7s %8s %10s %9s\n", "client", "layers", "kB/s",
              "buffered", "stalls(s)");
  double longest_stall = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    auto& s = *sessions[i];
    s.client().sync();
    std::printf("  %-22s %7d %8.1f %10.0f %9.3f\n", specs[i].name,
                s.server().adapter().active_layers(),
                s.controller().rate().kBps(), s.client().total_buffer(),
                s.client().base_stall().sec());
    longest_stall = std::max(longest_stall, s.client().base_stall().sec());
  }
  std::printf(
      "\nEach session adapted to its own path: quality tracks access\n"
      "capacity, and no playback stalled longer than %.3f s in total — the\n"
      "heterogeneity story the paper's introduction motivates.\n",
      longest_stall);
  return 0;
}
