#include "util/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"

namespace qa {

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(int buckets_per_octave) {
  QA_CHECK(buckets_per_octave >= 1);
  log_base_ = std::log(2.0) / static_cast<double>(buckets_per_octave);
  inv_log_base_ = 1.0 / log_base_;
}

int32_t Histogram::bucket_index(double v) const {
  return static_cast<int32_t>(std::floor(std::log(v) * inv_log_base_));
}

double Histogram::bucket_lower(int32_t idx) const {
  return std::exp(static_cast<double>(idx) * log_base_);
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (v > 0 && std::isfinite(v)) {
    ++buckets_[bucket_index(v)];
  } else {
    ++nonpositive_;
  }
}

std::vector<Histogram::Bucket> Histogram::export_buckets() const {
  std::vector<Bucket> out;
  out.reserve(buckets_.size());
  for (const auto& [idx, n] : buckets_) {
    out.push_back(Bucket{bucket_lower(idx), bucket_lower(idx + 1), n});
  }
  return out;
}

double Histogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::percentile(double p) const {
  QA_CHECK_GE(p, 0.0);
  QA_CHECK_LE(p, 100.0);
  if (count_ == 0) return 0.0;
  // Rank in (0, count]: the value below which ~p% of samples fall.
  const double rank =
      std::max(1.0, p / 100.0 * static_cast<double>(count_));
  double cum = static_cast<double>(nonpositive_);
  // All non-positive samples collapse onto the recorded minimum (the
  // histogram only resolves positive values logarithmically).
  if (rank <= cum) return min_;
  for (const auto& [idx, n] : buckets_) {
    const double next = cum + static_cast<double>(n);
    if (rank <= next) {
      // Interpolate linearly by rank within the bucket's bounds, clamped
      // to the observed extremes so p=0/100 are exact.
      const double lo = std::max(bucket_lower(idx), min_);
      const double hi = std::min(bucket_lower(idx + 1), max_);
      const double frac = (rank - cum) / static_cast<double>(n);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    cum = next;
  }
  return max_;
}

// ---- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::check_name_free(const std::string& name,
                                      const char* kind) const {
  const bool taken_elsewhere =
      (counters_.count(name) + gauges_.count(name) + gauge_fns_.count(name) +
       histograms_.count(name)) > 0;
  QA_CHECK_MSG(!taken_elsewhere, "metric name '"
                                     << name << "' already registered as a "
                                     << "different kind (wanted " << kind
                                     << ")");
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  check_name_free(name, "counter");
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  check_name_free(name, "gauge");
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      int buckets_per_octave) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  check_name_free(name, "histogram");
  return histograms_.emplace(name, Histogram(buckets_per_octave))
      .first->second;
}

void MetricsRegistry::register_gauge(const std::string& name,
                                     std::function<double()> fn) {
  QA_CHECK(fn != nullptr);
  auto it = gauge_fns_.find(name);
  if (it != gauge_fns_.end()) {
    it->second = std::move(fn);  // re-registration replaces the sampler
    return;
  }
  check_name_free(name, "callback gauge");
  gauge_fns_[name] = std::move(fn);
}

std::vector<MetricsRegistry::Row> MetricsRegistry::snapshot() const {
  std::vector<Row> rows;
  rows.reserve(size());
  for (const auto& [name, c] : counters_) {
    Row r;
    r.name = name;
    r.kind = "counter";
    r.value = static_cast<double>(c.value());
    rows.push_back(std::move(r));
  }
  for (const auto& [name, g] : gauges_) {
    Row r;
    r.name = name;
    r.kind = "gauge";
    r.value = g.value();
    rows.push_back(std::move(r));
  }
  for (const auto& [name, fn] : gauge_fns_) {
    Row r;
    r.name = name;
    r.kind = "gauge";
    r.value = fn();
    rows.push_back(std::move(r));
  }
  for (const auto& [name, h] : histograms_) {
    Row r;
    r.name = name;
    r.kind = "histogram";
    r.value = h.mean();
    r.count = h.count();
    r.sum = h.sum();
    r.min = h.min();
    r.max = h.max();
    r.p50 = h.percentile(50);
    r.p90 = h.percentile(90);
    r.p99 = h.percentile(99);
    r.buckets = h.export_buckets();
    r.nonpositive = h.nonpositive();
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  return rows;
}

void MetricsRegistry::write_csv(const std::string& path) const {
  CsvWriter csv(path, {"name", "kind", "value", "count", "sum", "min", "max",
                       "p50", "p90", "p99"});
  for (const Row& r : snapshot()) {
    csv.row_mixed({r.name, r.kind, format_number(r.value, 9),
                   std::to_string(r.count), format_number(r.sum, 9),
                   format_number(r.min, 9), format_number(r.max, 9),
                   format_number(r.p50, 9), format_number(r.p90, 9),
                   format_number(r.p99, 9)});
  }
}

namespace {

// One row rendered as the canonical JSON object write_json emits.
std::string metrics_row_json(const MetricsRegistry::Row& r) {
  std::string out = "{\"kind\": " + json_quote(r.kind) +
                    ", \"value\": " + json_number(r.value);
  if (r.kind == "histogram") {
    out += ", \"count\": " + json_number(r.count) +
           ", \"sum\": " + json_number(r.sum) +
           ", \"min\": " + json_number(r.min) +
           ", \"max\": " + json_number(r.max) +
           ", \"p50\": " + json_number(r.p50) +
           ", \"p90\": " + json_number(r.p90) +
           ", \"p99\": " + json_number(r.p99) +
           ", \"nonpositive\": " + json_number(r.nonpositive) +
           ", \"buckets\": [";
    bool first = true;
    for (const Histogram::Bucket& b : r.buckets) {
      if (!first) out += ", ";
      first = false;
      out += '[';
      out += json_number(b.lower) + ", " + json_number(b.upper) + ", " +
             json_number(b.count) + "]";
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

void MetricsRegistry::write_json(const std::string& path) const {
  std::string out = "{\n";
  bool first = true;
  for (const Row& r : snapshot()) {
    if (!first) out += ",\n";
    first = false;
    out += "  " + json_quote(r.name) + ": " + metrics_row_json(r);
  }
  out += "\n}\n";
  write_text_file(path, out);
}

}  // namespace qa
