// Declarative SLO rule engine with SRE-style multi-window burn-rate
// alerts, evaluated in sim-time over TimeSeriesRecorder sliding windows.
//
// An objective is a statement like "rebuffer ratio < 1% over 60 s": a
// recorder series, a signal reduction (time-weighted window mean, counter
// rate, or latest value), a comparison, and a threshold. Evaluation
// follows the SRE multi-window burn-rate pattern: the *burn ratio* is how
// hard the signal violates the threshold (measured/threshold for upper
// bounds, threshold/measured for lower bounds), and an alert opens only
// when the ratio exceeds `burn_factor` on BOTH a fast window (default
// 5 s — is it happening *now*?) and a slow window (default 60 s — is it
// sustained, not a blip?). The alert closes when both windows recover.
// This keeps alerts immune to single-sample spikes without going blind to
// fast burns.
//
// Alert open/close transitions are an ordered, typed timeline: consumers
// (app/observability) fan each transition out to the flight recorder and
// Chrome-trace instants via the alert hook.
//
// Determinism contract (DESIGN.md §16): evaluation must happen on the
// same sim-time cadence grid in every run — windowed values change as old
// points age out, so the timeline is a function of (trajectories ×
// evaluation grid). Same seed + same grid ⇒ byte-identical alerts.json;
// timeline_digest() pins that as a 64-bit FNV-1a fingerprint and
// write_slo_metrics_json() exposes it to qa_diff as exact-compared
// counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/time.h"
#include "util/timeseries.h"

namespace qa {

struct SloObjective {
  std::string name;    // alert id, e.g. "rebuffer_burn"
  std::string series;  // recorder series key, e.g. "client.rebuffer.paused_s"

  // How the window reduces to one number:
  //   kMean    time-weighted mean of the step function (gauges)
  //   kRate    window_delta / window seconds (monotone counters; a
  //            seconds-denominated counter yields a dimensionless ratio)
  //   kLatest  value at the window's end (pre-smoothed gauges)
  enum class Signal { kMean, kRate, kLatest };
  Signal signal = Signal::kMean;

  // Objective direction: kLess = "signal must stay below threshold",
  // kGreater = "signal must stay above threshold". threshold must be > 0
  // (burn ratios are threshold-relative).
  enum class Cmp { kLess, kGreater };
  Cmp cmp = Cmp::kLess;
  double threshold = 0;

  TimeDelta fast_window = TimeDelta::seconds(5);
  TimeDelta slow_window = TimeDelta::seconds(60);
  // Alert when burn ratio > burn_factor on both windows. 1.0 = alert at
  // exactly the threshold; >1 tolerates brief overshoot.
  double burn_factor = 1.0;
};

class SloEngine {
 public:
  explicit SloEngine(const TimeSeriesRecorder* recorder);

  void add(SloObjective obj);
  const std::vector<SloObjective>& objectives() const { return objectives_; }

  struct Transition {
    TimePoint t;
    std::string objective;
    bool open = false;      // true = alert opened, false = closed
    double fast_value = 0;  // signal over the fast window at transition
    double slow_value = 0;
  };

  // Evaluates every objective at sim-time `t`. Must be called on a fixed
  // cadence grid (the observability tick) — the alert timeline is only
  // reproducible for a reproducible grid. Times must be nondecreasing.
  void evaluate(TimePoint t);

  const std::vector<Transition>& transitions() const { return transitions_; }
  uint64_t evaluations() const { return evaluations_; }
  // True once any alert has opened (the qa_slo gate condition).
  bool breached() const { return total_opens_ > 0; }
  uint64_t total_opens() const { return total_opens_; }
  std::vector<std::string> open_objectives() const;
  // Cumulative open time for one objective; still-open alerts accrue up
  // to `end`.
  TimeDelta total_open_time(const std::string& objective, TimePoint end) const;

  // FNV-1a 64 over canonical transition lines — two runs with identical
  // alert timelines digest equal.
  uint64_t timeline_digest() const;

  // Fired on every open/close transition, after it is recorded.
  using AlertHook = std::function<void(const Transition&, const SloObjective&)>;
  void set_alert_hook(AlertHook hook) { hook_ = std::move(hook); }

 private:
  struct State {
    bool open = false;
    TimePoint opened_at;
    TimeDelta open_total = TimeDelta::zero();
    uint64_t opens = 0;
    TimePoint first_open;
    bool ever_opened = false;
  };

  // Signal over [t - window, t]; false when the series has no data yet.
  bool window_value(const SloObjective& obj, TimePoint t, TimeDelta window,
                    double* out) const;
  // Burn ratio (violation strength relative to the threshold).
  static double burn_ratio(const SloObjective& obj, double value);

  const TimeSeriesRecorder* recorder_;
  std::vector<SloObjective> objectives_;
  std::vector<State> states_;  // parallel to objectives_
  std::vector<Transition> transitions_;
  uint64_t evaluations_ = 0;
  uint64_t total_opens_ = 0;
  TimePoint last_eval_;
  AlertHook hook_;
};

// ---- spec / artifacts ------------------------------------------------------

// Parses a JSON SLO spec:
//   {"objectives": [{"name": "...", "series": "...", "signal": "mean",
//     "cmp": "<", "threshold": 0.01, "fast_window_s": 5,
//     "slow_window_s": 60, "burn_factor": 1.0}, ...]}
// signal ∈ mean|rate|latest, cmp ∈ <|>; window/burn fields optional
// (defaults above). Returns false and sets *error on malformed input.
bool parse_slo_spec(const std::string& json_text,
                    std::vector<SloObjective>* out, std::string* error);

// The alert timeline as a JSON artifact (alerts.json): breached flag,
// timeline digest, per-objective tallies, and the full transition list.
// Sim-time only — byte-identical across same-seed runs.
void write_alerts_json(const std::string& path, const SloEngine& engine,
                       TimePoint end);

// The timeline reduced to a metrics.json-shaped artifact (slo.json) so
// qa_diff can gate it: transition/open counts and the timeline digest as
// exact-compared counters, open-time tallies as gauges.
void write_slo_metrics_json(const std::string& path, const SloEngine& engine,
                            TimePoint end);

// Human-readable breach report ("objective X: 2 alerts, open 12.4s ...").
std::string slo_breach_report(const SloEngine& engine, TimePoint end);

}  // namespace qa
