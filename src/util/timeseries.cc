#include "util/timeseries.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"

namespace qa {

namespace {

// %.17g round-trips doubles exactly, so JSON exports replayed through
// inject() reproduce the recorded trajectory bit-for-bit.
std::string exact_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(const MetricsRegistry* registry)
    : TimeSeriesRecorder(registry, Options()) {}

TimeSeriesRecorder::TimeSeriesRecorder(const MetricsRegistry* registry,
                                       Options opts)
    : registry_(registry), opts_(opts) {
  if (registry_ != nullptr) snapshotter_.emplace(registry_);
  QA_CHECK_GE(opts_.capacity_per_series, size_t{16});
}

void TimeSeriesRecorder::bind(const MetricsRegistry* registry) {
  QA_CHECK(registry != nullptr);
  registry_ = registry;
  snapshotter_.emplace(registry_);
  prev_seq_ = 0;
}

void TimeSeriesRecorder::select(const std::string& pattern) {
  Selector sel;
  std::string body = pattern;
  if (const size_t hash = body.rfind('#'); hash != std::string::npos) {
    sel.column = body.substr(hash + 1);
    body = body.substr(0, hash);
    QA_CHECK_MSG(sel.column == "value" || sel.column == "count" ||
                     sel.column == "sum" || sel.column == "min" ||
                     sel.column == "max" || sel.column == "p50" ||
                     sel.column == "p90" || sel.column == "p99",
                 "unknown column in selector: " << pattern);
    if (sel.column == "value") sel.column.clear();
  }
  if (body.size() >= 2 && body.compare(body.size() - 2, 2, ".*") == 0) {
    sel.is_prefix = true;
    // Keep the trailing dot so "client.*" doesn't match "clientele".
    sel.name = body.substr(0, body.size() - 1);
  } else {
    sel.name = body;
  }
  QA_CHECK_MSG(!sel.name.empty(), "empty selector pattern: " << pattern);
  selectors_.push_back(std::move(sel));
}

double TimeSeriesRecorder::row_column(const MetricsRegistry::Row& row,
                                      const std::string& column) {
  if (column.empty()) return row.value;
  if (column == "count") return static_cast<double>(row.count);
  if (column == "sum") return row.sum;
  if (column == "min") return row.min;
  if (column == "max") return row.max;
  if (column == "p50") return row.p50;
  if (column == "p90") return row.p90;
  QA_CHECK_EQ(column, "p99");
  return row.p99;
}

void TimeSeriesRecorder::sample(TimePoint t) {
  QA_CHECK_MSG(snapshotter_.has_value(), "sample() without a bound registry");
  QA_CHECK_GE(t.ns(), last_sample_.ns());
  last_sample_ = t;
  const MetricsSnapshot& snap = snapshotter_->capture();
  for (const MetricsRegistry::Row& row : snap.changed_since(prev_seq_)) {
    for (const Selector& sel : selectors_) {
      const bool hit = sel.is_prefix
                           ? row.name.compare(0, sel.name.size(), sel.name) == 0
                           : row.name == sel.name;
      if (!hit) continue;
      const std::string key =
          sel.column.empty() ? row.name : row.name + "#" + sel.column;
      record(series_[key], t, row_column(row, sel.column));
    }
  }
  prev_seq_ = snap.seq;
}

void TimeSeriesRecorder::inject(const std::string& series, TimePoint t,
                                double value) {
  if (t > last_sample_) last_sample_ = t;
  record(series_[series], t, value);
}

void TimeSeriesRecorder::record(Series& s, TimePoint t, double value) {
  s.last_seen = Point{t, value};
  s.has_last = true;
  if (!s.pts.empty()) {
    // Same-tick update (several selectors, or re-inject): replace.
    if (s.pts.back().t == t) {
      s.pts.back().value = value;
      return;
    }
    // Unchanged value extends the step function for free.
    if (s.pts.back().value == value) return;
    if (!s.min_gap.is_zero() && t - s.pts.back().t < s.min_gap) return;
  }
  s.pts.push_back(Point{t, value});
  if (s.pts.size() >= opts_.capacity_per_series) {
    // Drop every other interior point; keep first and last. Future
    // appends must clear min_gap, keeping memory fixed forever.
    std::vector<Point> kept;
    kept.reserve(s.pts.size() / 2 + 2);
    for (size_t i = 0; i < s.pts.size(); i += 2) kept.push_back(s.pts[i]);
    if (kept.back().t != s.pts.back().t) kept.push_back(s.pts.back());
    const TimeDelta span = kept.back().t - kept.front().t;
    s.min_gap = TimeDelta::nanos(
        std::max<int64_t>(1, span.ns() / static_cast<int64_t>(
                                             opts_.capacity_per_series)));
    s.pts.swap(kept);
  }
}

const TimeSeriesRecorder::Series* TimeSeriesRecorder::find(
    const std::string& series) const {
  const auto it = series_.find(series);
  return it == series_.end() ? nullptr : &it->second;
}

std::optional<double> TimeSeriesRecorder::latest(
    const std::string& series) const {
  const Series* s = find(series);
  if (!s || !s->has_last) return std::nullopt;
  return s->last_seen.value;
}

std::optional<double> TimeSeriesRecorder::value_at(const std::string& series,
                                                   TimePoint t) const {
  const Series* s = find(series);
  if (!s || s->pts.empty()) return std::nullopt;
  if (s->has_last && t >= s->last_seen.t) return s->last_seen.value;
  if (t < s->pts.front().t) return std::nullopt;
  // Last point with time <= t.
  auto it = std::upper_bound(
      s->pts.begin(), s->pts.end(), t,
      [](TimePoint q, const Point& p) { return q < p.t; });
  return std::prev(it)->value;
}

std::optional<double> TimeSeriesRecorder::window_delta(
    const std::string& series, TimePoint t, TimeDelta window) const {
  const std::optional<double> now = value_at(series, t);
  if (!now) return std::nullopt;
  const Series* s = find(series);
  TimePoint start = t - window;
  if (start < s->pts.front().t) start = s->pts.front().t;
  const std::optional<double> then = value_at(series, start);
  return *now - *then;
}

std::optional<double> TimeSeriesRecorder::window_mean(
    const std::string& series, TimePoint t, TimeDelta window) const {
  const Series* s = find(series);
  if (!s || s->pts.empty()) return std::nullopt;
  TimePoint start = t - window;
  if (start < s->pts.front().t) start = s->pts.front().t;
  if (t < s->pts.front().t) return std::nullopt;
  if (t == start) return value_at(series, t);
  // Integrate the step function over [start, t]. Walk points inside the
  // window; the segment before the first in-window point carries
  // value_at(start).
  double integral = 0;
  TimePoint seg_start = start;
  double seg_value = *value_at(series, start);
  auto it = std::upper_bound(
      s->pts.begin(), s->pts.end(), start,
      [](TimePoint q, const Point& p) { return q < p.t; });
  for (; it != s->pts.end() && it->t < t; ++it) {
    integral += seg_value * (it->t - seg_start).sec();
    seg_start = it->t;
    seg_value = it->value;
  }
  integral += seg_value * (t - seg_start).sec();
  return integral / (t - start).sec();
}

std::optional<TimePoint> TimeSeriesRecorder::first_time(
    const std::string& series) const {
  const Series* s = find(series);
  if (!s || s->pts.empty()) return std::nullopt;
  return s->pts.front().t;
}

std::vector<std::string> TimeSeriesRecorder::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

std::vector<TimeSeriesRecorder::Point> TimeSeriesRecorder::points(
    const std::string& series) const {
  const Series* s = find(series);
  if (!s) return {};
  std::vector<Point> out = s->pts;
  if (s->has_last && (out.empty() || s->last_seen.t > out.back().t)) {
    out.push_back(s->last_seen);
  }
  return out;
}

size_t TimeSeriesRecorder::total_points() const {
  size_t n = 0;
  for (const auto& [name, s] : series_) n += s.pts.size();
  return n;
}

void TimeSeriesRecorder::write_csv(const std::string& path) const {
  CsvWriter csv(path, {"series", "time_s", "value"});
  for (const auto& [name, s] : series_) {
    for (const Point& p : points(name)) {
      csv.row_mixed({name, exact_double(p.t.sec()), exact_double(p.value)});
    }
  }
}

void TimeSeriesRecorder::write_json(const std::string& path) const {
  std::string out = "{\n  \"last_sample_s\": ";
  out += exact_double(last_sample_.sec());
  out += ",\n  \"series\": {";
  bool first_series = true;
  for (const auto& [name, s] : series_) {
    out += first_series ? "\n" : ",\n";
    first_series = false;
    out += "    " + json_quote(name) + ": [";
    bool first_pt = true;
    for (const Point& p : points(name)) {
      out += first_pt ? "" : ", ";
      first_pt = false;
      out += '[';
      out += exact_double(p.t.sec());
      out += ", ";
      out += exact_double(p.value);
      out += ']';
    }
    out += "]";
  }
  out += "\n  }\n}\n";
  write_text_file(path, out);
}

}  // namespace qa
