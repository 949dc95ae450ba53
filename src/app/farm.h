// ServerFarm: hundreds of concurrent quality-adaptive sessions over one
// shared bottleneck, with Poisson churn, quality-aware admission control,
// and an overload load-shedding ladder.
//
// The farm is the paper's scenario scaled to operator size: one Scheduler,
// one farm topology (sim::build_farm — heterogeneous access classes, routes
// pair-local), and up to `slots` simultaneous Sessions recycled through
// std::optional slots so churn never reallocates. Arrivals are a Poisson
// process, lifetimes exponential, both from dedicated seeded Rng streams;
// flash-crowd and mass-departure bursts plus an optional mid-run bottleneck
// outage (FaultInjector) exercise the control loops.
//
// Two control loops sit on top:
//   * AdmissionController gates each join against the analytic quality
//     model (admit / base-only / reject with deterministic retry backoff);
//   * LoadShedLadder watches aggregate signals each sample tick (bottleneck
//     queue occupancy, farm rebuffer fraction) and walks the degradation
//     ladder: freeze layer-adds -> farm-wide base-layer-only -> shed the
//     newest sessions.
//
// Per-flow observability is folded into shared histograms at departure
// (AdapterMetrics/RebufferLog::fold_into), so the registry stays O(1) in
// session count — a 1000-session run exports the same number of rows as a
// 10-session run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cc/congestion_controller.h"
#include "util/chrome_trace.h"
#include "util/flightrec.h"
#include "util/metrics_registry.h"
#include "util/rundiff.h"
#include "util/units.h"

namespace qa::app {

struct FarmParams {
  uint64_t seed = 1;
  int slots = 64;            // concurrent-session capacity (topology size)
  TimeDelta duration = TimeDelta::seconds(120);

  // Congestion-control backend every admitted session streams over.
  cc::Backend backend = cc::Backend::kRap;

  // Topology.
  Rate bottleneck_bw = Rate::megabits_per_sec(8);
  TimeDelta rtt = TimeDelta::millis(40);
  int64_t bottleneck_queue_bytes = 0;  // 0 => one BDP

  // Stream served to every session.
  int stream_layers = 4;
  Rate layer_rate = Rate::kilobytes_per_sec(10);
  int32_t packet_size = 1000;

  // Churn: Poisson arrivals, exponential lifetimes.
  double arrival_rate_hz = 1.0;
  TimeDelta mean_session = TimeDelta::seconds(40);

  // Bursts (negative time disables).
  TimeDelta flash_crowd_at = TimeDelta::seconds(-1);
  int flash_crowd_arrivals = 0;
  TimeDelta mass_departure_at = TimeDelta::seconds(-1);
  double mass_departure_fraction = 0;  // of active sessions, rounded up

  // Mid-run bottleneck outage (negative time disables).
  TimeDelta outage_at = TimeDelta::seconds(-1);
  TimeDelta outage = TimeDelta::zero();

  // Control loops.
  bool admission_enabled = true;
  bool ladder_enabled = true;

  // Aggregate sampling period (drives the ladder and the time series).
  TimeDelta sample_dt = TimeDelta::millis(500);

  // Optional: fold per-session metrics and farm aggregates into this
  // registry (bounded: histograms shared across all sessions). Admission
  // verdict and churn counters ("farm.arrivals", "farm.admitted", ...)
  // are the FarmResult totals, added once when the run ends.
  MetricsRegistry* registry = nullptr;

  // Optional observability fan-out (both not owned, both may be null):
  // admission verdicts and shed-ladder rung transitions as instants +
  // counter track on ChromeTraceWriter::kFarmTrack, and flight-recorder
  // notes.
  ChromeTraceWriter* trace = nullptr;
  FlightRecorder* flightrec = nullptr;

  // The named scenarios qa_farm runs (--preset): "smoke" (16 slots,
  // 60 s), "churn500" (~500 join attempts over 96 slots with a flash
  // crowd and a mass departure) and "overload" (offered load far beyond
  // what the quality model admits). Throws std::invalid_argument
  // with the invalid_choice() message for any other name.
  static FarmParams preset(const std::string& name);
};

// One aggregate sample (the farm.csv row).
struct FarmSample {
  // qa-lint: allow(double-seconds) — CSV column: the farm.csv time axis.
  double t_sec = 0;
  int active = 0;
  int shed_level = 0;        // ShedLevel as int
  double rebuffer_frac = 0;  // fraction of active sessions paused
  double jain = 0;           // Jain fairness over per-session goodput
  double queue_frac = 0;     // smoothed occupancy (the ladder's signal)
  double queue_inst_frac = 0;  // instantaneous occupancy at the sample
  double mean_layers = 0;    // mean active-layer count across sessions
};

struct FarmResult {
  // Admission ledger.
  int64_t arrivals = 0;       // join attempts, bursts and retries included
  int64_t admitted = 0;
  int64_t admitted_base_only = 0;
  int64_t rejected = 0;
  int64_t rejected_capacity = 0;  // no free slot (distinct from quality)
  int64_t retries = 0;
  int64_t retries_abandoned = 0;
  int64_t gate_transitions = 0;

  // Churn ledger.
  int64_t departures = 0;  // natural lifetime expiries + mass departures
  int64_t shed = 0;        // evicted by the ladder's top rung
  int peak_active = 0;

  // Ladder ledger.
  int64_t escalations = 0;
  int64_t deescalations = 0;
  int64_t oscillation_events = 0;
  int max_shed_level = 0;

  // Quality aggregates (real-valued sums over the whole run; these are
  // digest/CSV fields, not simulated instants).
  // qa-lint: allow(double-seconds) — aggregate statistic, exported as-is.
  double session_seconds = 0;       // sum over sessions of streamed time
  // qa-lint: allow(double-seconds) — aggregate statistic, exported as-is.
  double total_rebuffer_sec = 0;    // sum of user-visible interruption
  double aggregate_rebuffer_rate = 0;  // total_rebuffer_sec / session_seconds
  double mean_jain = 0;             // over samples with >= 2 active sessions
  double final_jain = 0;
  double mean_active = 0;           // time-average concurrent sessions
  double mean_layers = 0;           // time-average of per-sample mean layers
  int64_t total_packets_received = 0;

  std::vector<FarmSample> series;
};

FarmResult run_farm(const FarmParams& params);

// Canonical field map / 64-bit digest of a result (series folded into
// exact sums so any trajectory drift changes the digest). Deterministic:
// two same-seed runs digest equal.
RunFields farm_fields(const FarmResult& r);
uint64_t farm_digest(const FarmResult& r);

// Writes the aggregate time series as farm.csv.
void write_farm_series_csv(const FarmResult& r, const std::string& path);

// --- Chaos-harness farm trial. ---------------------------------------------
// One seeded robustness trial: flash crowd at t=20 into an already churning
// farm, bottleneck outage mid-run, then quiet tail. The harness asserts no
// admission flapping (zero ladder oscillations) and aggregate-quality
// recovery within `recovery_budget_sec` of the last disturbance.
struct FarmChaosOutcome {
  FarmResult result;
  // qa-lint: allow(double-seconds) — derived from the series' CSV time axis.
  double disturbance_end_sec = 0;
  // qa-lint: allow(double-seconds) — derived from the series' CSV time axis.
  double recovery_sec = -1;  // first post-disturbance sample below threshold
  bool recovered = false;
};

FarmChaosOutcome run_farm_chaos_trial(
    uint64_t seed, TimeDelta recovery_budget = TimeDelta::seconds(30));

}  // namespace qa::app
