// Shared helpers for the bench binaries (qa_paper and the micro benches).
//
// Every bench prints a human-readable summary to stdout (the rows/series
// the paper reports) and writes full-resolution CSVs under ./bench_out/ so
// the figures can be re-plotted with any tool.
#pragma once

#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/time.h"

namespace qa::bench {

// bench_out/<file>, creating the directory on first use.
inline std::string out_path(const std::string& file) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + file;
}

// A count flag (operations, sessions, repeats): `def` when absent, else
// the value parse_number<T> reads in full, which must be >= 1. Anything
// else throws std::invalid_argument naming the flag:
// "--width must be >= 1 (got 0)".
template <typename T>
T count_flag(const Flags& flags, const std::string& name, T def) {
  const auto text = flags.get(name);
  if (!text) return def;
  const T v = parse_number<T>(name, *text);
  if (v >= 1) return v;
  std::string msg = "--";
  msg += name;
  msg += " must be >= 1 (got ";
  msg += std::to_string(v);
  msg += ")";
  throw std::invalid_argument(msg);
}

// Fixed-width text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 12)
      : headers_(std::move(headers)), width_(width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) std::printf("%*s", width_, c.c_str());
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string fmt(double v, int digits = 2) {
  return format_number(v, digits);
}

// Counters (packet/drop/event counts) print through this overload so call
// sites stay free of value-changing integer->double conversions.
template <typename T>
  requires std::is_integral_v<T>
inline std::string fmt(T v, int digits = 0) {
  return format_number(static_cast<double>(v), digits);
}

inline std::string pct(double fraction, int digits = 2) {
  return format_number(fraction * 100.0, digits) + "%";
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Writes sampled columns as one CSV: a t_sec column from the sample clock
// `times`, then one column per entry of `columns`, each as long as the
// clock.
inline void write_series_csv(
    const std::string& file, std::span<const TimePoint> times,
    const std::vector<std::string>& names,
    const std::vector<std::span<const double>>& columns) {
  std::vector<std::string> cols = {"t_sec"};
  cols.insert(cols.end(), names.begin(), names.end());
  CsvWriter csv(out_path(file), cols);
  if (columns.empty() || times.empty()) return;
  for (const auto& column : columns) QA_CHECK(column.size() == times.size());
  const size_t n = times.size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = {times[i].sec()};
    for (const auto& column : columns) row.push_back(column[i]);
    csv.row(row);
  }
  std::printf("  wrote %s (%zu rows)\n", out_path(file).c_str(), n);
}

}  // namespace qa::bench
