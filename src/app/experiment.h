// Experiment presets and the full-simulation runner behind the paper's
// evaluation section (§5): figures 11–13 and tables 1–2.
//
// The canonical workloads:
//   T1 ("fig 11"): one quality-adaptive RAP flow sharing a dumbbell
//       bottleneck with 9 plain RAP flows and 10 TCP flows, 40 ms RTT.
//   T2 ("fig 13"): T1 plus a CBR source at half the bottleneck bandwidth
//       switched on for the middle third of a 90 s run.
//
// Parameter note (DESIGN.md §3): the paper quotes an 800 Kb/s bottleneck
// with C = 10 KB/s layers, which cannot feed even one layer at a 20-flow
// fair share; we keep 800 Kb/s and default to C = 1.25 kB/s, so the fair
// share feeds about four layers. Every parameter is overridable.
#pragma once

#include <cstdint>
#include <vector>

#include "app/session.h"
#include "core/filling_policy.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/units.h"

namespace qa::app {

class Observability;

struct ExperimentParams {
  // Congestion-control backend driving the quality-adaptive flow. The
  // competing plain-RAP/TCP/CBR load is unaffected.
  cc::Backend backend = cc::Backend::kRap;

  // Topology / competing load. The bottleneck queue defaults to 200
  // packets, mirroring ns-2's deep drop-tail defaults: on a slow link the
  // resulting ~0.5 s of queueing delay is what gives the paper its
  // multi-second AIMD cycles (S = P/RTT^2 shrinks with the queueing-
  // inflated RTT).
  Rate bottleneck = Rate::kilobits_per_sec(800);
  TimeDelta rtt = TimeDelta::millis(40);
  int64_t bottleneck_queue_bytes = 50'000;
  bool red_bottleneck = false;  // RED instead of drop-tail (sensitivity)
  int rap_flows = 10;  // including the quality-adaptive one
  int tcp_flows = 10;
  double duration_sec = 40;

  // CBR step load (T2 / fig 13).
  bool with_cbr = false;
  double cbr_fraction = 0.5;  // of the bottleneck bandwidth
  double cbr_start_sec = 30;
  double cbr_stop_sec = 60;

  // Stream / adapter. C is sized so the ~5 kB/s fair share of the 20-flow
  // 800 Kb/s default supports about four layers, the structure the paper's
  // figures show (its stated C = 10 kB/s only fits a ~10x faster link; see
  // DESIGN.md §3).
  Rate layer_rate = Rate::bytes_per_sec(1'250);  // C
  int stream_layers = 8;
  int kmax = 2;
  core::AllocationPolicy allocation = core::AllocationPolicy::kOptimal;
  bool monotone = true;
  int32_t packet_size = 250;

  // Sweep axes beyond the paper's grid (tools/qa_sweep): independent
  // Bernoulli wire loss on the data-path bottleneck (0 = the paper's pure
  // drop-tail loss process) and a seeded random fault schedule
  // (sim/inject_random_faults) over the middle half of the run.
  double bottleneck_loss_rate = 0;
  int random_faults = 0;

  // Reproducibility.
  uint64_t seed = 1;
  double sample_dt_sec = 0.1;
  bool keep_client_packet_log = false;

  // Optional observability hub (not owned). When set, run_experiment
  // attaches the scheduler, the bottleneck link, and the QA session to it,
  // and calls finish() — flushing trace/metrics/manifest artifacts — before
  // returning, since everything attached dies with the run. Populate the
  // manifest before calling; read the profiler after.
  Observability* observability = nullptr;

  // Optional sampled-series table (not owned). When set, run_experiment
  // replaces it with the QA flow's series, one row every sample_dt_sec
  // (rates, layers, buffers); when null, the run keeps no table.
  tracedrive::RunSeries* series = nullptr;

  // Named presets.
  static ExperimentParams t1(int kmax = 2, uint64_t seed = 1);
  static ExperimentParams t2(int kmax = 4, uint64_t seed = 1);
  // The fig-2 style single flow qa_trace runs by default: one
  // quality-adaptive RAP flow alone on a 240 Kb/s bottleneck, C = 10 kB/s,
  // Kmax = 1, 20 s, so the trace shows clean sawtooths and layer changes
  // without competing traffic.
  static ExperimentParams fig2();
  bool operator==(const ExperimentParams&) const = default;
};

struct ExperimentResult {
  core::AdapterMetrics metrics;     // drops/adds/efficiency
  // Transport-level statistics of the QA flow.
  int64_t qa_packets_sent = 0;
  int64_t qa_losses = 0;
  int64_t qa_backoffs = 0;
  double qa_mean_rate_bps = 0;      // over the run
  // Ground truth from the client.
  TimeDelta client_base_stall = TimeDelta::zero();
  // Rebuffer (playout pause) events: count, total paused time, and the
  // worst stall-to-resume recovery among recovered events.
  int64_t rebuffer_events = 0;
  TimeDelta rebuffer_time = TimeDelta::zero();
  TimeDelta rebuffer_max_recovery = TimeDelta::zero();
  double final_mirror_total_buffer = 0;
  double final_client_total_buffer = 0;
  // Aggregate fairness context: mean per-flow goodput of the competitors.
  double mean_rap_competitor_rate_bps = 0;
  double mean_tcp_rate_bps = 0;
  // Client packet log (when requested) for fig-2 style plots.
  std::vector<VideoClient::PacketRecord> client_packet_log;
};

// Builds the dumbbell, runs the workload, and collects its results (and,
// into params.series, the sampled series the benches print).
// Deterministic for a fixed parameter set (seeded).
ExperimentResult run_experiment(const ExperimentParams& params);

}  // namespace qa::app
