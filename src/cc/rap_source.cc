#include "cc/rap_source.h"

#include <algorithm>

namespace qa::cc {

double RapSource::slope_bps_per_sec() const {
  const double s = srtt_.sec();
  return static_cast<double>(params_.packet_size) / (s * s);
}

void RapSource::on_step() {
  if (!backoff_since_step_ && ack_since_step_) {
    // Additive increase: one extra packet per SRTT, applied each SRTT.
    const double alpha =
        static_cast<double>(params_.packet_size) / srtt_.sec();
    set_rate(Rate::bytes_per_sec(rate_.bps() + alpha));
  }
}

void RapSource::on_congestion() {
  set_rate(Rate::bytes_per_sec(
      std::max(rate_.bps() * 0.5, params_.min_rate.bps())));
}

}  // namespace qa::cc
