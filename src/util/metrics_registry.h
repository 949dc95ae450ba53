// Hierarchical metrics registry: named counters, gauges, and log-bucketed
// histograms with one snapshot/export path for every subsystem.
//
// Names are dot-separated ("link.bottleneck.tx_packets"); the registry
// keeps them sorted, so a snapshot reads as a tree. Three instrument kinds:
//
//   Counter    monotone int64 count (packets, drops, backoffs).
//   Gauge      last-written double; or a *callback* gauge evaluated lazily
//              at snapshot time, so live objects (a link's delivered-bytes
//              counter, an adapter's efficiency ratio) export without
//              double bookkeeping. Callback owners must outlive the
//              snapshot that samples them.
//   Histogram  log-bucketed distribution in O(log range) memory: fixed
//              relative resolution (default 4 buckets per factor of two,
//              ~19% bucket width) over an unbounded dynamic range, with
//              interpolated percentiles. util_metrics_registry_test pins
//              the percentile error against the exact SampleSet.
//
// Handed-out instrument references stay valid for the registry's lifetime
// (node-based maps). Export: snapshot() for in-process consumers, CSV and
// JSON writers for artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace qa {

class Counter {
 public:
  void inc(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

class Histogram {
 public:
  // `buckets_per_octave` sets the relative resolution: b buckets per
  // factor of two gives bucket bounds at 2^(k/b).
  explicit Histogram(int buckets_per_octave = 4);

  void observe(double v);

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // One occupied log bucket: [lower, upper) bounds and its sample count.
  struct Bucket {
    double lower = 0;
    double upper = 0;
    uint64_t count = 0;
  };

  // Occupied buckets in ascending value order. Samples with v <= 0 have no
  // log bucket; their count is reported separately.
  std::vector<Bucket> export_buckets() const;
  uint64_t nonpositive() const { return nonpositive_; }

  // Interpolated percentile, p in [0, 100]. Exact for p touching the
  // recorded min/max; elsewhere accurate to one bucket width.
  double percentile(double p) const;

 private:
  // log(v)/log(base) for the bucket index; bounds are base^k.
  int32_t bucket_index(double v) const;
  double bucket_lower(int32_t idx) const;

  double inv_log_base_;
  double log_base_;
  std::map<int32_t, uint64_t> buckets_;  // positive values, by log bucket
  uint64_t nonpositive_ = 0;             // v <= 0 (no log bucket)
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Instrument factories: create on first use, return the existing
  // instrument afterwards. A name is bound to one kind for the registry's
  // lifetime (checked).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, int buckets_per_octave = 4);

  // Callback gauge sampled at snapshot time. The callable (and whatever it
  // captures) must stay valid until the last snapshot/export.
  void register_gauge(const std::string& name, std::function<double()> fn);

  struct Row {
    std::string name;
    std::string kind;  // "counter" | "gauge" | "histogram"
    double value = 0;  // counter/gauge value; histogram mean
    // Histogram-only detail (zeroed otherwise).
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    // Occupied log-bucket breakdown (JSON export only; empty for
    // counters/gauges). Lets offline consumers recompute percentiles at
    // any rank without re-running the scenario.
    std::vector<Histogram::Bucket> buckets;
    uint64_t nonpositive = 0;
  };

  // All instruments, sorted by hierarchical name; callback gauges are
  // evaluated here.
  std::vector<Row> snapshot() const;

  // Artifact exports. Throw std::runtime_error when the file cannot be
  // created (CsvWriter semantics).
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + gauge_fns_.size() +
           histograms_.size();
  }

 private:
  void check_name_free(const std::string& name, const char* kind) const;

  // std::map: hierarchical ordering for free, and node stability keeps
  // handed-out instrument references valid as the registry grows.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::function<double()>> gauge_fns_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace qa
