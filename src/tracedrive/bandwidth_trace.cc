#include "tracedrive/bandwidth_trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/logging.h"

namespace qa::tracedrive {
namespace {

// Granularity of the replay loop. Fine enough that at most a handful of
// packets depart per step at realistic rates.
constexpr double kStepSec = 0.002;

}  // namespace

RunSeries::RunSeries(size_t n_layers, size_t samples)
    : layer_buffer(n_layers),
      layer_send_rate(n_layers),
      layer_drain_rate(n_layers) {
  times.reserve(samples);
  for (auto* column : {&rate, &consumption, &layers, &total_buffer}) {
    column->reserve(samples);
  }
  for (auto* per_layer :
       {&layer_buffer, &layer_send_rate, &layer_drain_rate}) {
    for (auto& column : *per_layer) column.reserve(samples);
  }
}

TraceRunResult run_trace(const core::AimdTrajectory& traj,
                         const core::AdapterConfig& cfg, double duration_sec,
                         double packet_bytes, double sample_dt_sec,
                         bool keep_packet_log, RunSeries* series) {
  QA_CHECK(duration_sec > 0);
  QA_CHECK(packet_bytes > 0);
  QA_CHECK(sample_dt_sec > 0);

  TraceRunResult result;
  core::QualityAdapter adapter(cfg);
  adapter.begin(TimePoint::origin());

  const size_t n_layers = static_cast<size_t>(cfg.max_layers);
  const int64_t steps = static_cast<int64_t>(duration_sec / kStepSec);
  if (series != nullptr) {
    // At most one sample per replay step, and one per sample_dt_sec up to
    // and including the end.
    *series = RunSeries(
        n_layers, static_cast<size_t>(
                      std::min(std::floor(duration_sec / sample_dt_sec) + 1,
                               static_cast<double>(steps))));
  }

  const double slope = traj.slope();
  std::vector<double> window_sent(n_layers, 0.0);  // bytes per sample window
  std::vector<int64_t> layer_seqs(n_layers, 0);
  double credit = 0;
  double next_sample = sample_dt_sec;
  size_t backoff_idx = 0;
  const auto& backoffs = traj.backoff_times();

  // Per-layer buffer levels at the last sample, to derive drain rates.
  std::vector<double> prev_buf(n_layers, 0.0);
  double prev_sample_t = 0;

  for (int64_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * kStepSec;  // no drift
    const TimePoint now = TimePoint::from_sec(t);

    // Deliver any backoffs that occurred within this step.
    while (backoff_idx < backoffs.size() && backoffs[backoff_idx] <= t) {
      const double tb = backoffs[backoff_idx];
      adapter.on_backoff(TimePoint::from_sec(tb), traj.rate_at(tb), slope);
      ++backoff_idx;
    }

    const double rate = traj.rate_at(t);
    credit += rate * kStepSec;
    while (credit >= packet_bytes) {
      credit -= packet_bytes;
      const int layer =
          adapter.on_send_opportunity(now, rate, slope, packet_bytes);
      if (layer == core::QualityAdapter::kPaddingSlot) continue;
      QA_CHECK(layer >= 0 && layer < cfg.max_layers);
      window_sent[static_cast<size_t>(layer)] += packet_bytes;
      if (keep_packet_log) {
        const double queued_ahead =
            adapter.receiver().buffer(layer) - packet_bytes;
        const double earliest =
            std::max(t, adapter.receiver().playout_start().sec());
        result.packet_log.push_back(TracePacket{
            t, layer, layer_seqs[static_cast<size_t>(layer)]++,
            earliest + std::max(0.0, queued_ahead) / cfg.consumption_rate});
      }
      ++result.packets_sent;
    }

    if (series != nullptr && t + kStepSec >= next_sample) {
      const double window = t + kStepSec - prev_sample_t;
      const int na = adapter.active_layers();
      series->times.push_back(now);
      series->rate.push_back(rate);
      series->consumption.push_back(static_cast<double>(na) *
                                    cfg.consumption_rate);
      series->layers.push_back(na);
      series->total_buffer.push_back(adapter.receiver().total_buffer());
      for (size_t i = 0; i < n_layers; ++i) {
        const double buf = adapter.receiver().buffer(static_cast<int>(i));
        series->layer_buffer[i].push_back(buf);
        series->layer_send_rate[i].push_back(window_sent[i] / window);
        // Drain rate: the buffer decrease not explained by consumption
        // being met from the network, floored at zero.
        const double delta = prev_buf[i] - buf;
        series->layer_drain_rate[i].push_back(std::max(0.0, delta / window));
        prev_buf[i] = buf;
        window_sent[i] = 0;
      }
      prev_sample_t = t + kStepSec;
      next_sample += sample_dt_sec;
    }
  }

  result.metrics = adapter.metrics();
  result.base_stall = adapter.receiver().base_stall_time();
  result.underflow_events = adapter.receiver().total_underflow_events();
  return result;
}

core::AimdTrajectory random_backoff_trajectory(double initial_rate,
                                               double slope, double cap,
                                               double duration_sec,
                                               double mean_backoff_interval,
                                               Rng& rng) {
  QA_CHECK(mean_backoff_interval > 0);
  core::AimdTrajectory traj(initial_rate, slope);
  traj.set_rate_cap(cap);

  // Merge two event streams: deterministic cap crossings (drop-tail-like
  // overflow) and Poisson random losses (§3's near-random Internet loss).
  double t = 0;
  double next_random = rng.exponential(mean_backoff_interval);
  double rate = initial_rate;
  while (t < duration_sec) {
    const double t_cap =
        cap > rate ? t + (cap - rate) / slope
                   : t;  // already at cap: overflow immediately
    const double t_next = std::min(t_cap, next_random);
    if (t_next >= duration_sec) break;
    // Guarantee strict ordering for AimdTrajectory.
    const double tb = std::max(t_next, t + 1e-6);
    traj.add_backoff(tb);
    rate = std::min(cap, rate + slope * (tb - t)) / 2.0;
    t = tb;
    if (t_next == next_random) {
      next_random = t + rng.exponential(mean_backoff_interval);
    }
  }
  return traj;
}

core::AimdTrajectory load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace " + path);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("empty trace " + path);
  }
  double r0 = 0, slope = 0, cap = 0;
  {
    std::istringstream hs(line);
    char c1 = 0, c2 = 0;
    if (!(hs >> r0 >> c1 >> slope >> c2 >> cap) || c1 != ',' || c2 != ',') {
      throw std::runtime_error("bad trace header in " + path);
    }
  }
  core::AimdTrajectory traj(r0, slope);
  traj.set_rate_cap(cap);
  double prev = -1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const double tb = std::stod(line);
    if (tb <= prev) {
      throw std::runtime_error("non-ascending backoff time in " + path);
    }
    traj.add_backoff(tb);
    prev = tb;
  }
  return traj;
}

void save_trace_csv(const core::AimdTrajectory& traj,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << traj.initial_rate() << ',' << traj.slope() << ',' << traj.rate_cap()
      << '\n';
  for (double tb : traj.backoff_times()) out << tb << '\n';
}

}  // namespace qa::tracedrive
