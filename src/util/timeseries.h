// Bounded-memory recorder of metric trajectories over sim-time.
//
// metrics.json is an end-of-run aggregate: it can say a run rebuffered for
// 3.2 s but not *when*, and an SLO ("rebuffer ratio < 1% over any 60 s
// window") is a statement about trajectories. TimeSeriesRecorder samples
// selected MetricsRegistry rows at a sim-time cadence and keeps each
// series as a step function — a point is stored only when the row
// changed, so sampling cost is O(changed rows) per tick via the
// MetricsSnapshotter delta machinery (the recorder owns a private
// snapshotter).
//
// Memory is fixed for arbitrarily long runs: each series is a bounded
// ring; on overflow the series is downsampled by dropping every other
// point and a minimum inter-point gap (span / capacity) applies from then
// on. Queries that feed SLO evaluation (latest, value_at, window_delta,
// window_mean) stay correct in the step-function sense; downsampling only
// coarsens *where* old transitions happened, never the latest value —
// `last_seen` is tracked exactly per series.
//
// Selectors choose what to record: an exact row name, or a prefix ending
// in ".*"; an optional "#column" suffix picks a histogram column
// (count/sum/min/max/p50/p90/p99) instead of the default value. Exports
// (CSV/JSON) and inject() are symmetric so a run's trajectories can be
// re-evaluated offline (qa_slo --eval) with identical results.
//
// Determinism (DESIGN.md §13/§16): sim-time only, sorted series map, no
// clocks or randomness — two same-seed runs record identical trajectories.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/metrics_registry.h"
#include "util/time.h"

namespace qa {

class TimeSeriesRecorder {
 public:
  struct Options {
    // Max stored points per series before downsampling kicks in.
    size_t capacity_per_series = 4096;
  };

  // A null registry is allowed: inject() and the queries work without
  // one (offline replay, qa_slo --eval); only sample() needs a binding.
  explicit TimeSeriesRecorder(const MetricsRegistry* registry);
  TimeSeriesRecorder(const MetricsRegistry* registry, Options opts);

  // Late registry binding, for consumers with a construction-order cycle:
  // Observability's config wants the recorder pointer up front, but the
  // registry the recorder should sample is owned by the hub itself.
  void bind(const MetricsRegistry* registry);

  // Adds a selector. Forms:
  //   "farm.rebuffer_frac"          exact row, default column
  //   "client.rebuffer.*"           prefix match, default column
  //   "farm.rebuffer#p99"           exact row, histogram column
  // The default column is Row::value (counter/gauge value, histogram
  // mean). Series recorded under a non-default column are keyed
  // "name#column".
  void select(const std::string& pattern);

  // Samples the registry at sim-time `t`: O(changed rows). Ticks must be
  // issued in nondecreasing time order (the scheduler guarantees this).
  void sample(TimePoint t);

  // Appends a point directly (offline replay, tests). Same ring/downsample
  // rules as sample().
  void inject(const std::string& series, TimePoint t, double value);

  struct Point {
    TimePoint t;
    double value = 0;
  };

  // --- queries (step-function semantics) ---

  // Exact latest value, immune to downsampling.
  std::optional<double> latest(const std::string& series) const;
  // Value of the step function at `t`: the last recorded point at or
  // before `t` (clamped to the latest value past the end). nullopt before
  // the series' first point.
  std::optional<double> value_at(const std::string& series, TimePoint t) const;
  // value_at(t) - value_at(t - window); the window is clipped to the
  // series' first point (counters start at their first recorded value).
  std::optional<double> window_delta(const std::string& series, TimePoint t,
                                     TimeDelta window) const;
  // Time-weighted mean of the step function over [t - window, t], clipped
  // to the series' observed span.
  std::optional<double> window_mean(const std::string& series, TimePoint t,
                                    TimeDelta window) const;
  std::optional<TimePoint> first_time(const std::string& series) const;

  // Series names, sorted.
  std::vector<std::string> series_names() const;
  // Stored points plus the exact `last_seen` tail (appended when newer
  // than the last stored point), so exports round-trip through inject().
  std::vector<Point> points(const std::string& series) const;

  size_t total_points() const;
  TimePoint last_sample_time() const { return last_sample_; }

  // --- exports ---
  // CSV: header "series,time_s,value"; rows sorted by series then time.
  void write_csv(const std::string& path) const;
  // JSON: {"last_sample_s": T, "series": {name: [[t_s, v], ...], ...}}.
  void write_json(const std::string& path) const;

 private:
  struct Selector {
    std::string name;    // exact name or prefix (without ".*")
    bool is_prefix = false;
    std::string column;  // "" = default (Row::value)
  };

  struct Series {
    std::vector<Point> pts;
    Point last_seen;       // exact latest, even when the ring skipped it
    bool has_last = false;
    TimeDelta min_gap = TimeDelta::zero();  // 0 until first downsample
  };

  static double row_column(const MetricsRegistry::Row& row,
                           const std::string& column);
  void record(Series& s, TimePoint t, double value);
  const Series* find(const std::string& series) const;

  const MetricsRegistry* registry_;
  Options opts_;
  std::optional<MetricsSnapshotter> snapshotter_;
  uint64_t prev_seq_ = 0;
  std::vector<Selector> selectors_;
  std::map<std::string, Series> series_;  // sorted: deterministic export
  TimePoint last_sample_;
};

}  // namespace qa
