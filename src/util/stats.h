// Small statistics helpers used by probes, metrics and benches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/time.h"

namespace qa {

// Streaming mean/variance/min/max (Welford). O(1) memory.
class RunningStats {
 public:
  void add(double x);
  size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0, m2_ = 0, sum_ = 0;
  double min_ = 0, max_ = 0;
};

// Stores samples; supports percentiles. Use when the sample count is modest.
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); }
  size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  // Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double min() const;
  double max() const;
  const std::vector<double>& samples() const { return xs_; }

 private:
  std::vector<double> xs_;
};

// A read-only step series: ascending sample times and one value per time,
// value i holding from times[i] until times[i + 1]. Both spans have the
// same length. A TimeSeries and each column of a run's sampled table are
// read through this one implementation.
struct SeriesView {
  std::span<const TimePoint> times;
  std::span<const double> values;

  size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }

  // Value at time t assuming the series is a step function (last point at or
  // before t). Returns `fallback` before the first point.
  double step_value_at(TimePoint t, double fallback = 0.0) const;

  // Mean of the step function over [from, to).
  double time_average(TimePoint from, TimePoint to) const;
};

// A (time, value) series grown one point at a time, for series sampled at
// irregular instants (e.g. the layer count at each add or drop).
class TimeSeries {
 public:
  void add(TimePoint t, double value) {
    times_.push_back(t);
    values_.push_back(value);
  }
  SeriesView view() const { return {times_, values_}; }
  bool empty() const { return values_.empty(); }
  size_t size() const { return values_.size(); }

  double step_value_at(TimePoint t, double fallback = 0.0) const {
    return view().step_value_at(t, fallback);
  }
  double time_average(TimePoint from, TimePoint to) const {
    return view().time_average(from, to);
  }

 private:
  std::vector<TimePoint> times_;  // ascending by construction
  std::vector<double> values_;
};

// Jain's fairness index over per-flow allocations: (sum x)^2 / (n sum x^2),
// 1.0 = perfectly fair, 1/n = one flow hogs everything. Empty input -> 0.
double jain_fairness(const std::vector<double>& allocations);

}  // namespace qa
