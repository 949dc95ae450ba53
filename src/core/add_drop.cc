#include "core/add_drop.h"

#include "core/state_sequence.h"
#include "util/logging.h"

namespace qa::core {

bool should_add_layer(const std::vector<double>& layer_buf, int active_layers,
                      double rate, const AimdModel& model,
                      const AddDropConfig& cfg) {
  QA_CHECK(active_layers >= 1);
  if (active_layers >= cfg.max_layers) return false;
  // Condition 1 (§2.1): instantaneous rate covers existing + new layer, so
  // the new layer can play out immediately with no inter-layer skew.
  const double new_consumption =
      static_cast<double>(active_layers + 1) * model.consumption_rate;
  if (rate < new_consumption) return false;
  // Smoothed condition 2 (§2.1 extended to Kmax per §3.1): buffering
  // sufficient to survive Kmax backoffs in both scenarios *with the new
  // layer playing*. Evaluating the prospective (na+1)-layer configuration
  // matters: judged against the current configuration, a sawtooth peak
  // (R >> n_a*C) makes k1 flip high enough that the spread-scenario
  // requirements vanish and layers get added with no protection, only to
  // be shed at the next trough.
  //
  // The newcomer starts empty; its own optimal share (the triangle tip) is
  // credited because the filling phase supplies the top layer first after
  // the add. Crediting cancels out of every top-suffix sum, so the check
  // reduces to suffix domination of the EXISTING layers' buffers over the
  // enlarged configuration's targets for those layers.
  //
  // The states are those of StateSequence(rate, n_new, ...). The check
  // reads only their raw targets and its outcome does not depend on their
  // order, so they are read straight from the target table.
  QA_CHECK(cfg.kmax >= 1);
  QA_CHECK(static_cast<int>(layer_buf.size()) >= active_layers);
  const TargetTable targets(rate, active_layers + 1, model);
  for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
    for (int k = 1; k <= cfg.kmax; ++k) {
      if (!StateSequence::is_state(targets, s, k)) continue;
      const int short_from = StateSequence::short_suffix(
          layer_buf, active_layers,
          [&](int i) { return targets.share(s, k, i); });
      if (short_from >= 0) return false;
    }
  }
  return true;
}

bool draining_buffers_sufficient(double rate, int active_layers,
                                 double total_buf, const AimdModel& model) {
  const double consumption =
      static_cast<double>(active_layers) * model.consumption_rate;
  if (rate >= consumption) return true;  // not draining
  const double required = triangle_area(consumption - rate, model.slope);
  return total_buf >= required;
}

}  // namespace qa::core
