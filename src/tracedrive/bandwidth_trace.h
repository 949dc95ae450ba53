// Trace-driven evaluation harness.
//
// The paper evaluates quality adaptation both inside a packet simulator and
// against recorded bandwidth traces (RAP in ns-2, live Internet runs). This
// module replays a rate trajectory — deterministic, synthetic-random, or
// loaded from CSV — against a QualityAdapter without any packet network:
// packets "depart" exactly at the trajectory's instantaneous rate, and
// backoff events invoke the adapter's backoff path. It is the fast path for
// property tests over thousands of random loss patterns and regenerates the
// conceptual figures (2, 5, 6).
#pragma once

#include <string>
#include <vector>

#include "core/analytic_model.h"
#include "core/quality_adapter.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qa::tracedrive {

// The sampled series of one run, as one table: a sample clock and one
// value column per quantity, each as long as the clock. A sample costs
// 8 B per column plus 8 B for its time (29 x 8 B with 8 layers). Per-layer
// column vectors are indexed by layer and sized to the adapter's
// max_layers. Runs fill one only for a caller that passes it in.
struct RunSeries {
  RunSeries() = default;
  // Sizes the table for `samples` rows of `n_layers` layers, so recording
  // up to that many rows never reallocates.
  RunSeries(size_t n_layers, size_t samples);

  std::vector<TimePoint> times;      // the sample clock
  std::vector<double> rate;          // transmission rate (bytes/s)
  std::vector<double> consumption;   // n_a * C (bytes/s)
  std::vector<double> layers;        // active layer count
  std::vector<double> total_buffer;  // bytes across active layers
  std::vector<std::vector<double>> layer_buffer;      // bytes per layer
  std::vector<std::vector<double>> layer_send_rate;   // bytes/s delivered
  std::vector<std::vector<double>> layer_drain_rate;  // bytes/s drawn from
                                                      // the buffer

  // One column of this table read against its clock.
  SeriesView view(const std::vector<double>& column) const {
    return {times, column};
  }
};

// One transmitted packet, for fig-2 style sequence/playout plots.
struct TracePacket {
  double t = 0;          // transmission time (s)
  int layer = 0;
  int64_t layer_seq = 0; // per-layer sequence number
  double playout = 0;    // estimated playout instant (s)
};

struct TraceRunResult {
  core::AdapterMetrics metrics;
  int64_t packets_sent = 0;
  TimeDelta base_stall = TimeDelta::zero();
  int64_t underflow_events = 0;
  std::vector<TracePacket> packet_log;  // filled when requested
};

// Replays `traj` for `duration_sec` against a fresh adapter configured by
// `cfg`. `packet_bytes` sets the send granularity; `sample_dt_sec` the
// series sampling period. `keep_packet_log` records every packet with its
// estimated playout time (arrival + queued-ahead bytes / C). A non-null
// `series` is replaced by the run's sampled table; with none, the replay
// samples nothing.
TraceRunResult run_trace(const core::AimdTrajectory& traj,
                         const core::AdapterConfig& cfg, double duration_sec,
                         double packet_bytes = 1000.0,
                         double sample_dt_sec = 0.1,
                         bool keep_packet_log = false,
                         RunSeries* series = nullptr);

// Synthetic "near-random loss" trajectory (§3): linear increase at `slope`
// from `initial_rate`, capped at `cap`, with backoffs forced at every cap
// crossing plus Poisson-random extra backoffs at `mean_backoff_interval`.
core::AimdTrajectory random_backoff_trajectory(double initial_rate,
                                               double slope, double cap,
                                               double duration_sec,
                                               double mean_backoff_interval,
                                               Rng& rng);

// Loads a trajectory from CSV: a header row "initial_rate,slope,cap"
// (bytes/s, bytes/s^2, bytes/s; cap 0 = uncapped) followed by one ascending
// backoff time (seconds) per row. Throws std::runtime_error on malformed
// input. save_trace_csv writes the same format.
core::AimdTrajectory load_trace_csv(const std::string& path);
void save_trace_csv(const core::AimdTrajectory& traj, const std::string& path);

}  // namespace qa::tracedrive
