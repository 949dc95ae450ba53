// micro_session_churn — session build+teardown throughput on a prebuilt
// farm topology: the hot path of the server farm's churn loop (hundreds of
// Poisson arrivals per run, each an emplace into a recycled
// std::optional<Session> slot and later a stop+reset).
//
// Compares per-session LayeredVideo construction (what a naive SessionConfig
// does: re-allocate the stream description for every arrival) against the
// farm's shared-prototype path (one LayeredVideo allocation for the whole
// run, handed to every session via shared_ptr). Results are written as a
// JSON record to bench_out/BENCH_farm.json or --json FILE.
//
//   micro_session_churn                       # default 20k sessions/side
//   micro_session_churn --sessions 5000 --json /tmp/farm.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "app/session.h"
#include "bench_util.h"
#include "core/layered_video.h"
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
  cfg.stream_layers = 4;
  cfg.layer_rate = Rate::kilobytes_per_sec(2.5);
  cfg.cc.packet_size = 500;
  return cfg;
}

// Builds and retires `sessions` sessions round-robin over the farm's slots,
// exactly like the farm's churn loop (emplace into a stable optional slot,
// stop, reset). Returns wall seconds. A fresh Network per call: agents are
// owned by the network for its lifetime, so reusing one across sides would
// let the first side's garbage skew the second's allocator behavior.
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
    sessions = static_cast<uint64_t>(
        flags.get_int("sessions", static_cast<int64_t>(sessions)));
    repeats = static_cast<int>(flags.get_int("repeats", repeats));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "micro_session_churn: %s\n", e.what());
    return kUsageExitStatus;
  }
  const std::string json_path =
      flags.get_or("json", bench::out_path("BENCH_farm.json"));
  exit_on_unknown_flags(flags, usage);

  bench::banner("micro_session_churn: session build+teardown throughput");
  std::printf("sessions per side: %llu, repeats: %d (min taken)\n",
              static_cast<unsigned long long>(sessions), repeats);

  // Baseline: every session constructs its own LayeredVideo.
  const app::SessionConfig fresh_cfg = session_config();
  const double fresh_wall = best_of(repeats, sessions, fresh_cfg);

  // Optimized: one shared prototype for the whole run (the farm's path).
  app::SessionConfig shared_cfg = session_config();
  shared_cfg.video = std::make_shared<const core::LayeredVideo>(
      core::LayeredVideo::linear("stream", shared_cfg.stream_layers,
                                 shared_cfg.layer_rate));
  const double shared_wall = best_of(repeats, sessions, shared_cfg);

  const double fresh_rate =
      fresh_wall > 0 ? static_cast<double>(sessions) / fresh_wall : 0;
  const double shared_rate =
      shared_wall > 0 ? static_cast<double>(sessions) / shared_wall : 0;
  const double speedup = fresh_rate > 0 ? shared_rate / fresh_rate : 0;

  bench::TablePrinter table({"side", "wall_s", "Ksessions/s"});
  table.print_header();
  table.print_row({"fresh-video", bench::fmt(fresh_wall, 3),
                   bench::fmt(fresh_rate / 1e3, 1)});
  table.print_row({"shared-proto", bench::fmt(shared_wall, 3),
                   bench::fmt(shared_rate / 1e3, 1)});
  std::printf("speedup: %.2fx\n", speedup);

  std::string json = "{\n";
  json += "  \"bench\": \"micro_session_churn\",\n";
  json += "  \"sessions_per_side\": " + json_number(sessions) + ",\n";
  json += "  \"baseline_sessions_per_sec\": " + json_number(fresh_rate) +
          ",\n";
  json += "  \"optimized_sessions_per_sec\": " + json_number(shared_rate) +
          ",\n";
  json += "  \"speedup\": " + json_number(speedup) + ",\n";
  json += "  \"baseline_wall_s\": " + json_number(fresh_wall) + ",\n";
  json += "  \"optimized_wall_s\": " + json_number(shared_wall) + ",\n";
  json += "  \"peak_rss_bytes\": " + json_number(peak_rss_bytes()) + "\n";
  json += "}\n";
  write_text_file(json_path, json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
