// Trace-driven "what-if" exploration — no packet simulation involved.
//
// The adapter can be driven directly from a bandwidth/backoff trace (the
// paper also evaluated against recorded RAP traces). This example builds a
// synthetic trace with near-random losses, replays it at three smoothing
// factors, prints the quality/buffering trade-off, and shows the CSV
// round-trip so recorded traces can be replayed the same way:
//
//   $ ./trace_replay                          # synthetic trace
//   $ ./trace_replay my.csv                   # your own trace
//   $ ./trace_replay --out-dir /tmp/replay    # artifacts somewhere else
//
// The round-tripped trace CSV is written under --out-dir (default
// ./trace_replay_out), never into the source tree or bare working
// directory.
#include <cstdio>
#include <filesystem>
#include <string>

#include "tracedrive/bandwidth_trace.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace qa;

namespace {

void usage() { std::printf("trace_replay [trace.csv] [--out-dir DIR]\n"); }

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string out_dir = flags.get_or("out-dir", "trace_replay_out");
  exit_on_unknown_flags(flags, usage);

  core::AimdTrajectory traj = [&] {
    if (!flags.positional().empty()) {
      const std::string& path = flags.positional().front();
      std::printf("replaying trace %s\n", path.c_str());
      return tracedrive::load_trace_csv(path);
    }
    // Synthetic: ~6 kB/s fair share, Poisson backoffs every ~2.5 s plus
    // drop-tail overflows at the 9 kB/s cap.
    Rng rng(2026);
    return tracedrive::random_backoff_trajectory(
        /*initial_rate=*/4'000, /*slope=*/1'200, /*cap=*/9'000,
        /*duration_sec=*/120, /*mean_backoff_interval=*/2.5, rng);
  }();

  const double duration = 120.0;
  std::printf("trace: %zu backoffs over %.0f s, slope %.0f B/s^2\n\n",
              traj.backoff_times().size(), duration, traj.slope());

  std::printf("  %4s %9s %9s %10s %9s %8s\n", "Kmax", "changes", "meanQ",
              "peak_buf", "stalls_s", "drops");
  for (int kmax : {1, 2, 4}) {
    core::AdapterConfig cfg;
    cfg.consumption_rate = 1'500;  // C = 1.5 kB/s -> up to 6 layers
    cfg.max_layers = 6;
    cfg.kmax = kmax;
    cfg.playout_delay = TimeDelta::seconds(2);
    tracedrive::RunSeries series;
    const auto result = tracedrive::run_trace(
        traj, cfg, duration, /*packet_bytes=*/250, /*sample_dt_sec=*/0.1,
        /*keep_packet_log=*/false, &series);
    double peak_buf = 0;
    for (double buf : series.total_buffer) {
      peak_buf = std::max(peak_buf, buf);
    }
    std::printf("  %4d %9d %9.2f %10.0f %9.3f %8zu\n", kmax,
                result.metrics.quality_changes(),
                result.metrics.mean_quality(TimePoint::from_sec(5),
                                            TimePoint::from_sec(duration)),
                peak_buf, result.base_stall.sec(),
                result.metrics.drops().size());
  }

  // Round-trip demo: persist the trace for later replays.
  std::filesystem::create_directories(out_dir);
  const std::string out = out_dir + "/trace_replay_last.csv";
  tracedrive::save_trace_csv(traj, out);
  std::printf("\ntrace saved to %s (replay with: trace_replay %s)\n",
              out.c_str(), out.c_str());
  return 0;
}
