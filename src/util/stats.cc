#include "util/stats.h"

#include <cmath>

namespace qa {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double SampleSet::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double SampleSet::min() const {
  return xs_.empty() ? 0.0 : *std::min_element(xs_.begin(), xs_.end());
}

double SampleSet::max() const {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double SeriesView::step_value_at(TimePoint t, double fallback) const {
  if (times.empty() || t < times.front()) return fallback;
  // The last point with time <= t.
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  return values[static_cast<size_t>(it - times.begin()) - 1];
}

double SeriesView::time_average(TimePoint from, TimePoint to) const {
  if (to <= from || times.empty()) return 0.0;
  double area = 0.0;
  TimePoint cursor = from;
  double value = step_value_at(from);
  for (size_t i = 0; i < times.size(); ++i) {
    if (times[i] <= from) {
      continue;
    }
    if (times[i] >= to) break;
    area += value * (times[i] - cursor).sec();
    cursor = times[i];
    value = values[i];
  }
  area += value * (to - cursor).sec();
  return area / (to - from).sec();
}

double jain_fairness(const std::vector<double>& allocations) {
  if (allocations.empty()) return 0.0;
  double sum = 0, sq = 0;
  for (double x : allocations) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0) return 0.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sq);
}

}  // namespace qa
