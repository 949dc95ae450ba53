// micro_session_churn — session build+teardown throughput on a prebuilt
// farm topology: the hot path of the server farm's churn loop (hundreds of
// Poisson arrivals per run, each an emplace into a recycled
// std::optional<Session> slot and later a stop+reset).
//
// Reports the best-of-repeats build+teardown rate; the record (sessions,
// sessions/s, wall time, peak RSS) is written as JSON to
// bench_out/BENCH_farm.json or --json FILE.
//
//   micro_session_churn                       # default 20k sessions
//   micro_session_churn --sessions 5000 --json /tmp/farm.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "app/session.h"
#include "bench_util.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/json.h"

using namespace qa;

namespace {

sim::FarmTopoParams topo_params() {
  sim::FarmTopoParams tp;
  tp.slots = 8;
  tp.bottleneck_bw = Rate::kilobytes_per_sec(100);
  tp.rtt = TimeDelta::millis(40);
  return tp;
}

app::SessionConfig session_config() {
  app::SessionConfig cfg;
  cfg.adapter.max_layers = 4;
  cfg.adapter.consumption_rate = 2'500;
  cfg.cc.packet_size = 500;
  return cfg;
}

// Builds and retires `sessions` sessions round-robin over the farm's slots,
// exactly like the farm's churn loop (emplace into a stable optional slot,
// stop, reset). Returns wall seconds. A fresh Network per call: agents are
// owned by the network for its lifetime, so reusing one across repeats
// would let an earlier repeat's garbage skew the next one's allocator.
double churn(uint64_t sessions, const app::SessionConfig& cfg) {
  sim::Network net;
  const sim::FarmTopoParams tp = topo_params();
  net.reserve(2 + tp.slots * 2, 2 + tp.slots * 4,
              static_cast<size_t>(tp.slots) * 4);
  const sim::FarmTopo topo = sim::build_farm(net, tp);

  std::vector<std::optional<app::Session>> slots(
      static_cast<size_t>(tp.slots));
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < sessions; ++i) {
    const size_t s = static_cast<size_t>(i) % slots.size();
    if (slots[s]) {
      slots[s]->stop();
      slots[s].reset();
    }
    slots[s].emplace(net, topo.servers[s], topo.clients[s], cfg);
  }
  for (auto& slot : slots) {
    if (slot) {
      slot->stop();
      slot.reset();
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double best_of(int repeats, uint64_t sessions, const app::SessionConfig& cfg) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    const double wall = churn(sessions, cfg);
    if (r == 0 || wall < best) best = wall;
  }
  return best;
}

void usage() {
  std::printf("micro_session_churn [--sessions N] [--repeats N] "
              "[--json FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  uint64_t sessions = 20'000;
  int repeats = 3;
  try {
    sessions = static_cast<uint64_t>(bench::count_flag(
        flags, "sessions", static_cast<int64_t>(sessions)));
    repeats = bench::count_flag(flags, "repeats", repeats);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "micro_session_churn: %s\n", e.what());
    return kUsageExitStatus;
  }
  const std::string json_path =
      flags.get_or("json", bench::out_path("BENCH_farm.json"));
  exit_on_unknown_flags(flags, usage);

  bench::banner("micro_session_churn: session build+teardown throughput");
  std::printf("sessions: %llu, repeats: %d (min taken)\n",
              static_cast<unsigned long long>(sessions), repeats);

  const double wall = best_of(repeats, sessions, session_config());
  const double rate = wall > 0 ? static_cast<double>(sessions) / wall : 0;

  bench::TablePrinter table({"wall_s", "Ksessions/s"});
  table.print_header();
  table.print_row({bench::fmt(wall, 3), bench::fmt(rate / 1e3, 1)});

  std::string json = "{\n";
  json += "  \"bench\": \"micro_session_churn\",\n";
  json += "  \"sessions\": " + json_number(sessions) + ",\n";
  json += "  \"sessions_per_sec\": " + json_number(rate) + ",\n";
  json += "  \"wall_s\": " + json_number(wall) + ",\n";
  json += "  \"peak_rss_bytes\": " + json_number(peak_rss_bytes()) + "\n";
  json += "}\n";
  write_text_file(json_path, json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
