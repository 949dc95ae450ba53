#include "cc/tfrc_source.h"

#include <algorithm>
#include <cmath>

namespace qa::cc {
namespace {

// WALI interval weights, most recent closed interval first (RFC 5348 §5.4).
constexpr double kWali[8] = {1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2};

}  // namespace

double TfrcSource::slope_bps_per_sec() const {
  const double s = srtt_.sec();
  return static_cast<double>(params_.packet_size) / (s * s);
}

double TfrcSource::equation_rate(double p) const {
  const double s = static_cast<double>(params_.packet_size);
  const double r = srtt_.sec();
  const double t_rto = 4.0 * r;
  const double f =
      r * std::sqrt(2.0 * p / 3.0) +
      t_rto * (3.0 * std::sqrt(3.0 * p / 8.0)) * p * (1.0 + 32.0 * p * p);
  return s / f;
}

double TfrcSource::average_loss_interval() const {
  double num = 0.0;
  double den = 0.0;
  const size_t n = std::min<size_t>(intervals_.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    num += kWali[i] * intervals_[i];
    den += kWali[i];
  }
  const double closed = num / den;
  // History discounting: shift the intervals by one and let the still-open
  // interval occupy the most-recent slot. Taking the max means a long
  // loss-free stretch raises the average (lowers p) immediately, while a
  // short open interval cannot drag the estimate down before it closes.
  const double open =
      static_cast<double>(packets_sent() - interval_start_packets_);
  double num_open = kWali[0] * open;
  double den_open = kWali[0];
  const size_t n_open = std::min<size_t>(intervals_.size(), 7);
  for (size_t i = 0; i < n_open; ++i) {
    num_open += kWali[i + 1] * intervals_[i];
    den_open += kWali[i + 1];
  }
  return std::max(closed, num_open / den_open);
}

double TfrcSource::loss_event_rate() const {
  if (!have_loss_ || intervals_.empty()) return 0.0;
  const double avg = average_loss_interval();
  return avg >= 1.0 ? 1.0 / avg : 1.0;
}

void TfrcSource::fold_delivery_window() {
  const double dt = step_interval().sec();
  if (dt <= 0.0) return;
  const double sample = acked_bytes_step_ / dt;
  acked_bytes_step_ = 0.0;
  if (!have_delivery_sample_) {
    // Only seed the estimate once data has actually been delivered;
    // otherwise the 2x-delivery cap would pin a starting flow at the floor.
    if (sample <= 0.0) return;
    have_delivery_sample_ = true;
    delivery_rate_bps_ = sample;
    return;
  }
  delivery_rate_bps_ = 0.5 * delivery_rate_bps_ + 0.5 * sample;
}

void TfrcSource::on_feedback(const sim::Packet& /*ack*/,
                             TimeDelta /*rtt_sample*/) {
  acked_bytes_step_ += static_cast<double>(params_.packet_size);
}

void TfrcSource::on_step() {
  fold_delivery_window();
  const double old_bps = rate_.bps();
  double target;
  if (!have_loss_) {
    // Slow start: double once per RTT while feedback keeps arriving, bounded
    // by twice the observed delivery rate so a thin path is not overrun.
    if (!ack_since_step_ || backoff_since_step_) return;
    target = old_bps * 2.0;
  } else {
    // Steady state: track the equation as SRTT and the loss history evolve.
    target = equation_rate(loss_event_rate());
  }
  if (have_delivery_sample_) {
    target = std::min(
        target, std::max(2.0 * delivery_rate_bps_, params_.min_rate.bps()));
  }
  target = std::min(target, kMaxRate.bps());
  set_rate(Rate::bytes_per_sec(target));
}

void TfrcSource::on_congestion() {
  const int64_t count = packets_sent() - interval_start_packets_;
  intervals_.push_front(static_cast<double>(std::max<int64_t>(count, 1)));
  interval_start_packets_ = packets_sent();
  if (!have_loss_) {
    have_loss_ = true;
    // Seed the first interval so the equation maps it near the rate slow
    // start reached (RFC 5348 §6.3.1, via the simple sqrt-model inverse
    // p = 3/2 * (s / (X*R))^2): the measured packet count undercounts the
    // steady-state interval because slow start spent most of it at low rate.
    const double s = static_cast<double>(params_.packet_size);
    const double xr = rate_.bps() * srtt_.sec();
    if (xr > 0.0) {
      const double ratio = s / xr;
      const double p0 = 1.5 * ratio * ratio;
      if (p0 > 0.0) intervals_[0] = std::max(intervals_[0], 1.0 / p0);
    }
  }
  while (intervals_.size() > 8) intervals_.pop_back();
  // Immediate response to the new loss event; no halving, the equation
  // already embeds the decrease.
  double target = equation_rate(loss_event_rate());
  target = std::min(target, kMaxRate.bps());
  set_rate(Rate::bytes_per_sec(target));
}

}  // namespace qa::cc
