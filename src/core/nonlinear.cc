#include "core/nonlinear.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/logging.h"

namespace qa::core {

LayerProfile::LayerProfile(std::vector<double> rates)
    : rates_(std::move(rates)) {
  QA_CHECK_MSG(!rates_.empty(), "a profile needs at least the base layer");
  cumulative_.reserve(rates_.size() + 1);
  cumulative_.push_back(0.0);
  for (double r : rates_) {
    QA_CHECK(r > 0);
    cumulative_.push_back(cumulative_.back() + r);
  }
}

double LayerProfile::rate(int layer) const {
  QA_CHECK(layer >= 0 && layer < layers());
  return rates_[static_cast<size_t>(layer)];
}

double LayerProfile::cumulative(int n) const {
  QA_CHECK(n >= 0 && n <= layers());
  return cumulative_[static_cast<size_t>(n)];
}

double nl_band_share(double height, int layer, const LayerProfile& profile,
                     double slope) {
  QA_CHECK(layer >= 0 && layer < profile.layers());
  if (height <= 0) return 0;
  const double lo = profile.cumulative(layer);
  if (lo >= height) return 0;
  const double hi = profile.cumulative(layer + 1);
  const double above_lo = triangle_area(height - lo, slope);
  const double above_hi =
      hi >= height ? 0.0 : triangle_area(height - hi, slope);
  return above_lo - above_hi;
}

namespace {

// Smallest k >= 1 with rate / 2^k < total consumption.
int nl_min_backoffs(double rate, const LayerProfile& profile) {
  double r = rate;
  for (int k = 1; k <= 64; ++k) {
    r /= 2.0;
    if (r < profile.total()) return k;
  }
  return 64;
}

double nl_height(Scenario scenario, int k, double rate,
                 const LayerProfile& profile) {
  if (k <= 0) return 0;
  if (scenario == Scenario::kClustered) {
    return profile.total() - rate / std::exp2(k);
  }
  const int k1 = nl_min_backoffs(rate, profile);
  if (k < k1) return 0;
  return profile.total() - rate / std::exp2(k1);
}

}  // namespace

double nl_total_required(Scenario scenario, int k, double rate,
                         const LayerProfile& profile, double slope) {
  if (k <= 0) return 0;
  const double first =
      triangle_area(nl_height(scenario, k, rate, profile), slope);
  if (scenario == Scenario::kClustered) return first;
  const int k1 = nl_min_backoffs(rate, profile);
  if (k < k1) return 0;
  const double spread = triangle_area(profile.total() / 2.0, slope);
  return first + static_cast<double>(k - k1) * spread;
}

double nl_layer_required(Scenario scenario, int k, int layer, double rate,
                         const LayerProfile& profile, double slope) {
  if (k <= 0) return 0;
  const double h = nl_height(scenario, k, rate, profile);
  const double first = nl_band_share(h, layer, profile, slope);
  if (scenario == Scenario::kClustered) return first;
  const int k1 = nl_min_backoffs(rate, profile);
  if (k < k1) return 0;
  const double spread =
      nl_band_share(profile.total() / 2.0, layer, profile, slope);
  return first + static_cast<double>(k - k1) * spread;
}

bool nl_drain_feasible(double rate, const LayerProfile& profile,
                       const std::vector<double>& layer_buf, double slope) {
  const int n = profile.layers();
  QA_CHECK(static_cast<int>(layer_buf.size()) >= n);
  const double height = profile.total() - rate;
  if (height <= 0) return true;
  const double recovery_sec = height / slope;

  // Greedy schedule simulation with heterogeneous drain caps: at every
  // instant the deficit must be covered by layers playing from buffer,
  // each at most at its own rate. Serving with the largest remaining
  // buffer-per-rate first is a near-exact heuristic (exact in the uniform
  // case); 128 steps keep the discretization error below a packet.
  constexpr int kSteps = 128;
  const double dt = recovery_sec / kSteps;
  struct Src {
    double remaining;
    double cap_rate;
  };
  std::vector<Src> srcs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    srcs[static_cast<size_t>(i)] = {layer_buf[static_cast<size_t>(i)],
                                    profile.rate(i)};
  }
  for (int step = 0; step < kSteps; ++step) {
    const double t = (step + 0.5) * dt;
    double deficit = height - slope * t;
    if (deficit <= 0) break;
    std::sort(srcs.begin(), srcs.end(), [](const Src& a, const Src& b) {
      return a.remaining > b.remaining;
    });
    for (auto& s : srcs) {
      if (deficit <= 0) break;
      const double draw = std::min({s.cap_rate, deficit, s.remaining / dt});
      s.remaining -= draw * dt;
      deficit -= draw;
    }
    if (deficit > 1e-6) return false;
  }
  return true;
}

}  // namespace qa::core
