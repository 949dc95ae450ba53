#include "core/analytic_model.h"

#include <algorithm>

#include "util/logging.h"

namespace qa::core {

AimdTrajectory::AimdTrajectory(double initial_rate, double slope)
    : initial_rate_(initial_rate), slope_(slope) {
  QA_CHECK(initial_rate_ > 0);
  QA_CHECK(slope_ > 0);
}

void AimdTrajectory::add_backoff(double t_sec) {
  QA_CHECK(backoffs_.empty() || t_sec > backoffs_.back());
  backoffs_.push_back(t_sec);
  post_rates_.push_back(post_rate(backoffs_.size() - 1));
}

void AimdTrajectory::set_rate_cap(double cap) {
  QA_CHECK(cap >= 0);
  cap_ = cap;
  for (size_t i = 0; i < backoffs_.size(); ++i) post_rates_[i] = post_rate(i);
}

double AimdTrajectory::grow(double rate, double dt) const {
  const double r = rate + slope_ * dt;
  return cap_ > 0 ? std::min(r, cap_) : r;
}

double AimdTrajectory::post_rate(size_t i) const {
  const double t_prev = i == 0 ? 0.0 : backoffs_[i - 1];
  const double r_prev = i == 0 ? initial_rate_ : post_rates_[i - 1];
  return grow(r_prev, backoffs_[i] - t_prev) / 2.0;
}

double AimdTrajectory::rate_at(double t_sec) const {
  const auto passed = static_cast<size_t>(backoffs_before(t_sec));
  if (passed == 0) return grow(initial_rate_, t_sec);
  return grow(post_rates_[passed - 1], t_sec - backoffs_[passed - 1]);
}

int AimdTrajectory::backoffs_before(double t_sec) const {
  return static_cast<int>(
      std::upper_bound(backoffs_.begin(), backoffs_.end(), t_sec) -
      backoffs_.begin());
}

AimdTrajectory AimdTrajectory::sawtooth(double initial_rate, double slope,
                                        double cap, double duration_sec) {
  QA_CHECK(cap > initial_rate);
  AimdTrajectory traj(initial_rate, slope);
  traj.set_rate_cap(cap);
  double rate = initial_rate;
  double t = 0;
  while (true) {
    const double t_hit = t + (cap - rate) / slope;
    if (t_hit >= duration_sec) break;
    traj.add_backoff(t_hit);
    rate = cap / 2.0;
    t = t_hit;
  }
  return traj;
}

QualityPrediction predict_session_quality(const FarmLoadModel& model) {
  QA_CHECK(model.sessions >= 1);
  QA_CHECK(model.consumption_rate > 0);
  QA_CHECK(model.utilization_margin > 0 && model.utilization_margin <= 1);

  QualityPrediction out;
  double share =
      model.bottleneck_bps / static_cast<double>(model.sessions);
  if (model.access_bps > 0) share = std::min(share, model.access_bps);
  out.fair_share_bps = share;
  out.usable_bps = share * model.utilization_margin;

  // Largest n with n*C under the usable share whose kmax-backoff protection
  // is attainable: buffering for the clustered-backoff deficit triangle
  // (§4.1, the adapter's own target) must be refillable from the share's
  // surplus over consumption within one sawtooth period (share / 2S is the
  // time the rate spends climbing back from the trough).
  const AimdModel aimd{model.consumption_rate,
                       model.slope > 0 ? model.slope : 1.0};
  int sustainable = 0;
  for (int n = 1; n <= model.max_layers; ++n) {
    const double consumption = static_cast<double>(n) * model.consumption_rate;
    if (consumption > out.usable_bps) break;
    if (model.slope > 0 && model.kmax > 0) {
      const double target = total_buf_required(Scenario::kClustered,
                                               model.kmax, share, n, aimd);
      const double surplus = out.usable_bps - consumption;
      const double recovery_window = share / (2.0 * model.slope);
      if (surplus * recovery_window < target) break;
    }
    sustainable = n;
  }
  out.sustainable_layers = sustainable;
  out.headroom_layers =
      out.usable_bps / model.consumption_rate - static_cast<double>(sustainable);
  return out;
}

}  // namespace qa::core
