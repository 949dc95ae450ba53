#include "core/draining_policy.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace qa::core {
namespace {

constexpr double kEps = 1e-9;

// Deficit expected over the next `dt` seconds: consumption minus the
// linearly recovering transmission rate, clamped at zero once the rate
// crosses the consumption line.
double expected_deficit(double rate, int active_layers, const AimdModel& m,
                        double dt) {
  const double consumption =
      static_cast<double>(active_layers) * m.consumption_rate;
  const double gap = consumption - rate;
  if (gap <= 0) return 0;
  const double t_recover = gap / m.slope;  // when rate meets consumption
  const double t = std::min(dt, t_recover);
  return gap * t - 0.5 * m.slope * t * t;
}

void plan_equal_share(DrainPlan& plan, const std::vector<double>& layer_buf,
                      int active_layers, const AimdModel& m, double dt) {
  // Strawman: drain all layers evenly.
  double remaining = plan.planned_deficit;
  const double cap = m.consumption_rate * dt;
  for (int round = 0; round < active_layers && remaining > kEps; ++round) {
    const double per = remaining / static_cast<double>(active_layers);
    for (int i = 0; i < active_layers && remaining > kEps; ++i) {
      auto& d = plan.drain_bytes[static_cast<size_t>(i)];
      const double can =
          std::min({per, layer_buf[static_cast<size_t>(i)] - d, cap - d,
                    remaining});
      if (can > 0) {
        d += can;
        remaining -= can;
      }
    }
  }
  plan.shortfall = std::max(0.0, remaining);
}

void plan_base_only(DrainPlan& plan, const std::vector<double>& layer_buf,
                    int active_layers, const AimdModel& m, double dt) {
  // Strawman: drain the base layer first, then upwards.
  double remaining = plan.planned_deficit;
  const double cap = m.consumption_rate * dt;
  for (int i = 0; i < active_layers && remaining > kEps; ++i) {
    const double can =
        std::min({layer_buf[static_cast<size_t>(i)], cap, remaining});
    if (can > 0) {
      plan.drain_bytes[static_cast<size_t>(i)] = can;
      remaining -= can;
    }
  }
  plan.shortfall = std::max(0.0, remaining);
}

// The optimal drain (§4.2): walk the optimal-state sequence backwards from
// the deepest state the current buffering covers, draining top-down and
// never dipping a layer below its share in the state being regressed
// toward.
void plan_optimal(DrainPlan& plan, StateSequence& seq,
                  const std::vector<double>& layer_buf, int active_layers,
                  double rate_ref, const AimdModel& model, int kmax,
                  double period_sec, bool monotone, double min_drainable) {
  const double drain_cap = model.consumption_rate * period_sec;
  double remaining = plan.planned_deficit;

  if (remaining > kEps) {
    seq.rebuild(rate_ref, active_layers, model, kmax, monotone);
    double tot_buf = 0;
    for (int i = 0; i < active_layers; ++i) {
      tot_buf += layer_buf[static_cast<size_t>(i)];
    }
    int idx = seq.last_covered(tot_buf);

    for (; idx >= -1 && remaining > kEps; --idx) {
      // Below the first state every floor is zero.
      const double* targets =
          idx >= 0 ? seq.states()[static_cast<size_t>(idx)]
                         .adjusted_targets.data()
                   : nullptr;
      for (int i = active_layers - 1; i >= 0 && remaining > kEps; --i) {
        if (layer_buf[static_cast<size_t>(i)] <= min_drainable) continue;
        auto& d = plan.drain_bytes[static_cast<size_t>(i)];
        const double floor = targets != nullptr ? targets[i] : 0.0;
        const double can =
            std::min({layer_buf[static_cast<size_t>(i)] - d - floor,
                      drain_cap - d, remaining});
        if (can > kEps) {
          d += can;
          remaining -= can;
        }
      }
      if (idx == -1) break;
    }
  }
  plan.shortfall = std::max(0.0, remaining);
}

}  // namespace

DrainPlan plan_drain_period(const std::vector<double>& layer_buf,
                            int active_layers, double rate, double rate_ref,
                            const AimdModel& model, int kmax,
                            double period_sec, bool monotone,
                            AllocationPolicy policy, double min_drainable) {
  DrainPlan plan;
  StateSequence seq;
  plan_drain_period(plan, seq, layer_buf, active_layers, rate, rate_ref,
                    model, kmax, period_sec, monotone, policy, min_drainable);
  return plan;
}

void plan_drain_period(DrainPlan& plan, StateSequence& seq,
                       const std::vector<double>& layer_buf,
                       int active_layers, double rate, double rate_ref,
                       const AimdModel& model, int kmax, double period_sec,
                       bool monotone, AllocationPolicy policy,
                       double min_drainable) {
  QA_CHECK(active_layers >= 1);
  QA_CHECK(static_cast<int>(layer_buf.size()) >= active_layers);
  QA_CHECK(period_sec > 0);

  plan.planned_deficit =
      expected_deficit(rate, active_layers, model, period_sec);
  plan.drain_bytes.assign(static_cast<size_t>(active_layers), 0.0);

  switch (policy) {
    case AllocationPolicy::kEqualShare:
      plan_equal_share(plan, layer_buf, active_layers, model, period_sec);
      break;
    case AllocationPolicy::kBaseOnly:
      plan_base_only(plan, layer_buf, active_layers, model, period_sec);
      break;
    case AllocationPolicy::kOptimal:
      plan_optimal(plan, seq, layer_buf, active_layers, rate_ref, model, kmax,
                   period_sec, monotone, min_drainable);
      break;
  }

  plan.send_bytes.resize(static_cast<size_t>(active_layers));
  for (int i = 0; i < active_layers; ++i) {
    plan.send_bytes[static_cast<size_t>(i)] =
        std::max(0.0, model.consumption_rate * period_sec -
                          plan.drain_bytes[static_cast<size_t>(i)]);
  }
}

}  // namespace qa::core
