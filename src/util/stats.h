// Small statistics helpers used by probes, metrics and benches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

// A (time, value) series, e.g. the transmission rate of a flow over a run.
class TimeSeries {
 public:
  struct Point {
    TimePoint t;
    double value;
  };

  void add(TimePoint t, double value) { points_.push_back({t, value}); }
  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  // Value at time t assuming the series is a step function (last point at or
  // before t). Returns `fallback` before the first point.
  double step_value_at(TimePoint t, double fallback = 0.0) const;

  // Mean of the step function over [from, to).
  double time_average(TimePoint from, TimePoint to) const;

 private:
  std::vector<Point> points_;  // ascending in t by construction
};

// Jain's fairness index over per-flow allocations: (sum x)^2 / (n sum x^2),
// 1.0 = perfectly fair, 1/n = one flow hogs everything. Empty input -> 0.
double jain_fairness(const std::vector<double>& allocations);

}  // namespace qa
