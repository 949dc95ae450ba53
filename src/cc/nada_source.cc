#include "cc/nada_source.h"

#include <algorithm>
#include <cmath>

namespace qa::cc {
namespace {

// RFC 8698 §4.3 parameter shapes, scaled to the simulator's regime.
constexpr double kDeltaSec = 0.1;     // fixed update interval delta
constexpr double kXrefSec = 0.010;    // reference congestion signal x_ref
constexpr double kKappa = 0.5;        // gradual-update scaling
constexpr double kTauSec = 0.5;       // observation window tau
constexpr double kDelayAlpha = 0.9;   // EWMA retention for queuing delay
constexpr double kGammaMax = 0.25;    // ramp-up cap per delta
constexpr double kLossPenaltySec = 0.010;  // signal bump per loss event
constexpr double kLossDecay = 0.8;    // penalty retention per delta
constexpr double kBeta = 0.75;        // multiplicative decrease on loss
// Non-linear delay warping (RFC 8698 §4.2): above kQthSec of standing
// queuing delay the bottleneck is being filled by loss-based cross traffic,
// so the delay term is warped toward zero and the loss penalty takes over —
// otherwise a pure delay response starves against TCP at a drop-tail queue.
constexpr double kQthSec = 0.050;     // warping threshold QTH
constexpr double kLambda = 0.5;       // warping steepness LAMBDA

// The delay contribution to the aggregate signal after warping.
double warped_delay_sec(double d_queue_sec) {
  if (d_queue_sec <= kQthSec) return d_queue_sec;
  return kQthSec * std::exp(-kLambda * (d_queue_sec - kQthSec) / kQthSec);
}

}  // namespace

TimeDelta NadaSource::step_interval() const {
  return TimeDelta::from_sec(kDeltaSec);
}

double NadaSource::slope_bps_per_sec() const {
  // Worst-case growth is the ramp-up bound: gamma_max of the current rate
  // per delta. The QA layer treats this as the linear slope S.
  return kGammaMax * rate_.bps() / kDeltaSec;
}

TimeDelta NadaSource::congestion_signal() const {
  return delay_filt_ + loss_penalty_;
}

void NadaSource::on_feedback(const sim::Packet& /*ack*/,
                             TimeDelta rtt_sample) {
  if (rtt_sample <= TimeDelta::zero()) return;
  if (!have_base_ || rtt_sample < base_rtt_) {
    have_base_ = true;
    base_rtt_ = rtt_sample;
  }
  const TimeDelta queuing = rtt_sample - base_rtt_;
  if (!have_delay_) {
    have_delay_ = true;
    delay_filt_ = queuing;
    return;
  }
  delay_filt_ = TimeDelta::from_sec(kDelayAlpha * delay_filt_.sec() +
                                    (1.0 - kDelayAlpha) * queuing.sec());
}

void NadaSource::on_step() {
  loss_penalty_ = TimeDelta::from_sec(loss_penalty_.sec() * kLossDecay);
  if (!ack_since_step_) return;  // no feedback, hold the rate
  const double old_bps = rate_.bps();
  const double d_raw_sec = delay_filt_.sec();
  const double pen_sec = loss_penalty_.sec();
  // Mode selection looks at the raw signal (RFC 8698 §4.3); only the
  // gradual update's operating point uses the warped delay.
  const double x_curr_sec = warped_delay_sec(d_raw_sec) + pen_sec;
  double target;
  if (!backoff_since_step_ && pen_sec < 1e-4 &&
      d_raw_sec + pen_sec < 0.5 * kXrefSec) {
    // Accelerated ramp-up: the path shows no queuing and no recent loss.
    // Growth per delta is bounded by gamma, which shrinks as the RTT grows
    // so one flight's worth of overshoot stays small (RFC 8698 §4.3).
    const double rtt_sec = std::max(srtt_.sec(), 1e-3);
    const double gamma = std::min(kGammaMax, kDeltaSec / (3.0 * rtt_sec));
    target = old_bps * (1.0 + gamma);
  } else {
    // Gradual update: move against the signed offset from x_ref. Relative
    // to the current rate (not r_max as in the RFC) so the step size stays
    // proportional to the operating point.
    const double x_offset_sec = x_curr_sec - kXrefSec;
    target = old_bps -
             kKappa * (kDeltaSec / kTauSec) * (x_offset_sec / kTauSec) * old_bps;
    if (x_offset_sec < 0) {
      // Increase direction: floor the relative term at AIMD's additive
      // increase (one packet per RTT per RTT, RAP's alpha), pro-rated to
      // this delta. Without the floor the proportional term shrinks with
      // the rate and NADA is out-competed ~10:1 by loss-based flows it
      // would otherwise match at the same loss cadence.
      const double rtt_sec = std::max(srtt_.sec(), 1e-3);
      const double additive =
          params_.packet_size / (rtt_sec * rtt_sec) * kDeltaSec;
      target = std::max(target, old_bps + additive);
    }
  }
  target = std::min(target, kMaxRate.bps());
  set_rate(Rate::bytes_per_sec(target));
}

void NadaSource::on_congestion() {
  // Loss events mean a queue overflowed (or AQM marked): respond like a
  // loss-based flow so NADA neither starves nor bullies TCP/RAP at a
  // drop-tail bottleneck, and remember the event in the aggregate signal.
  loss_penalty_ =
      loss_penalty_ + TimeDelta::from_sec(kLossPenaltySec);
  set_rate(Rate::bytes_per_sec(
      std::max(rate_.bps() * kBeta, params_.min_rate.bps())));
}

}  // namespace qa::cc
