#include "core/buffer_math.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/logging.h"

namespace qa::core {

double triangle_area(double height, double slope) {
  QA_CHECK(slope > 0);
  if (height <= 0) return 0;
  return height * height / (2.0 * slope);
}

double band_share(double height, int layer, double consumption_rate,
                  double slope) {
  QA_CHECK(layer >= 0);
  QA_CHECK(consumption_rate > 0);
  if (height <= 0) return 0;
  const double lo = static_cast<double>(layer) * consumption_rate;
  if (lo >= height) return 0;
  const double hi = lo + consumption_rate;
  // Area above height h inside the triangle is (H - h)^2 / 2S; a band is a
  // difference of two such areas (quadrilateral bcde of fig 4), except the
  // clipped apex band (triangle above lo).
  const double above_lo = triangle_area(height - lo, slope);
  const double above_hi = hi >= height ? 0.0 : triangle_area(height - hi, slope);
  return above_lo - above_hi;
}

int buffering_layers(double height, double consumption_rate) {
  QA_CHECK(consumption_rate > 0);
  if (height <= 0) return 0;
  return static_cast<int>(std::ceil(height / consumption_rate - 1e-12));
}

int min_backoffs_to_drain(double rate, int active_layers,
                          double consumption_rate) {
  QA_CHECK(active_layers >= 1);
  const double consumption =
      static_cast<double>(active_layers) * consumption_rate;
  QA_CHECK(consumption > 0);
  double r = rate;
  for (int k = 1; k <= 64; ++k) {
    r /= 2.0;
    if (r < consumption) return k;
  }
  return 64;
}

TargetTable::TargetTable(double rate, int active_layers,
                         const AimdModel& model)
    : rate_(rate),
      active_layers_(active_layers),
      model_(model),
      consumption_(static_cast<double>(active_layers) *
                   model.consumption_rate),
      k1_(min_backoffs_to_drain(rate, active_layers, model.consumption_rate)),
      spread_height_(consumption_ - rate / std::exp2(k1_)) {}

double TargetTable::height(Scenario scenario, int k) const {
  QA_CHECK(k >= 0);
  if (k == 0) return 0;
  if (scenario == Scenario::kClustered) {
    return consumption_ - rate_ / std::exp2(k);
  }
  if (k < k1_) return 0;  // not enough backoffs to enter a draining phase
  return spread_height_;
}

double TargetTable::total(Scenario scenario, int k) const {
  if (k <= 0) return 0;
  if (scenario == Scenario::kClustered) {
    return triangle_area(height(scenario, k), model_.slope);
  }
  if (k < k1_) return 0;
  // Each spread backoff halves the rate right when it has recovered to the
  // consumption rate, adding a triangle of height n_a*C/2 (fig 14).
  const double spread = triangle_area(consumption_ / 2.0, model_.slope);
  return triangle_area(spread_height_, model_.slope) +
         static_cast<double>(k - k1_) * spread;
}

double TargetTable::share(Scenario scenario, int k, int layer) const {
  QA_CHECK(layer >= 0 && layer < active_layers_);
  if (k <= 0) return 0;
  const double c = model_.consumption_rate;
  if (scenario == Scenario::kClustered) {
    return band_share(height(scenario, k), layer, c, model_.slope);
  }
  if (k < k1_) return 0;
  const double spread = band_share(consumption_ / 2.0, layer, c, model_.slope);
  return band_share(spread_height_, layer, c, model_.slope) +
         static_cast<double>(k - k1_) * spread;
}

double deficit_height(Scenario scenario, int k, double rate,
                      int active_layers, const AimdModel& model) {
  QA_CHECK(k >= 0);
  if (k == 0) return 0;
  return TargetTable(rate, active_layers, model).height(scenario, k);
}

double total_buf_required(Scenario scenario, int k, double rate,
                          int active_layers, const AimdModel& model) {
  if (k <= 0) return 0;
  return TargetTable(rate, active_layers, model).total(scenario, k);
}

double layer_buf_required(Scenario scenario, int k, int layer, double rate,
                          int active_layers, const AimdModel& model) {
  QA_CHECK(layer >= 0 && layer < active_layers);
  if (k <= 0) return 0;
  return TargetTable(rate, active_layers, model).share(scenario, k, layer);
}

int layers_to_keep(double rate_post_backoff, int active_layers,
                   double total_buf, const AimdModel& model) {
  QA_CHECK(active_layers >= 1);
  QA_CHECK(total_buf >= 0);
  int n = active_layers;
  const double reach =
      rate_post_backoff + std::sqrt(2.0 * model.slope * total_buf);
  while (n > 1 &&
         static_cast<double>(n) * model.consumption_rate > reach) {
    --n;
  }
  return n;
}

bool drain_feasible(double rate, int n_layers,
                    const std::vector<double>& layer_buf,
                    const AimdModel& model) {
  QA_CHECK(n_layers >= 1);
  QA_CHECK(static_cast<int>(layer_buf.size()) >= n_layers);
  const double height =
      static_cast<double>(n_layers) * model.consumption_rate - rate;
  if (height <= 0) return true;  // the rate alone feeds every layer
  const double recovery_sec = height / model.slope;

  // Greedy schedule simulation: at every instant ceil(D(t)/C) distinct
  // layers must play from buffer (a layer drains at most at C); serving
  // with the fullest remaining buffers is exchange-optimal for this
  // decreasing staircase demand. 128 steps keep the discretization error
  // far below a packet.
  constexpr int kSteps = 128;
  const double dt = recovery_sec / kSteps;
  std::vector<double> remaining(layer_buf.begin(),
                                layer_buf.begin() + n_layers);
  std::sort(remaining.begin(), remaining.end(), std::greater<>());
  for (int step = 0; step < kSteps; ++step) {
    // Evaluate the deficit at the step midpoint.
    const double t = (step + 0.5) * dt;
    double deficit = height - model.slope * t;
    if (deficit <= 0) break;
    for (int i = 0; i < n_layers && deficit > 0; ++i) {
      const double draw =
          std::min({model.consumption_rate, deficit,
                    remaining[static_cast<size_t>(i)] / dt});
      remaining[static_cast<size_t>(i)] -= draw * dt;
      deficit -= draw;
    }
    if (deficit > 1e-6) return false;  // not enough buffered layers now
    // Keep the fullest-first invariant cheaply (profile stays sorted after
    // uniform draws, but partial draws can perturb the tail).
    std::sort(remaining.begin(), remaining.end(), std::greater<>());
  }
  return true;
}

int layers_sustainable(double rate, int active_layers,
                       const std::vector<double>& layer_buf,
                       const AimdModel& model) {
  QA_CHECK(active_layers >= 1);
  for (int n = active_layers; n > 1; --n) {
    if (drain_feasible(rate, n, layer_buf, model)) return n;
  }
  return 1;
}

bool basic_add_conditions(double rate, int active_layers, double total_buf,
                          const AimdModel& model) {
  const double new_consumption =
      static_cast<double>(active_layers + 1) * model.consumption_rate;
  if (rate < new_consumption) return false;  // condition 1
  const double required =
      triangle_area(new_consumption - rate / 2.0, model.slope);
  return total_buf >= required;  // condition 2
}

}  // namespace qa::core
