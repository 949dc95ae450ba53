#include "core/filling_policy.h"

#include <algorithm>
#include <limits>

#include "core/state_sequence.h"
#include "util/logging.h"

namespace qa::core {
namespace {

constexpr double kEps = 1e-9;
// How deep the scenario-2 ladder may go when surplus bandwidth keeps
// arriving but no layer can be added. Purely a sanity bound — each extra
// state adds a full n_a*C/2 recovery triangle of buffering.
constexpr int kSpreadCap = 64;

double total_of(const std::vector<double>& v, int n) {
  double s = 0;
  for (int i = 0; i < n; ++i) s += v[static_cast<size_t>(i)];
  return s;
}

FillDecision pick_equal_share(const std::vector<double>& layer_buf,
                              int active_layers, const TargetTable& targets,
                              int kmax) {
  // Strawman: aim every layer at an equal slice of the scenario-1 Kmax
  // total; send to the most deprived layer.
  const double target = targets.total(Scenario::kClustered, kmax) /
                        static_cast<double>(active_layers);
  int best = -1;
  double best_gap = kEps;
  for (int i = 0; i < active_layers; ++i) {
    const double gap = target - layer_buf[static_cast<size_t>(i)];
    if (gap > best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return {best, Scenario::kClustered, kmax};
}

FillDecision pick_base_only(const std::vector<double>& layer_buf,
                            const TargetTable& targets, int kmax) {
  // Strawman: the base layer holds all protective buffering.
  const double target = targets.total(Scenario::kClustered, kmax);
  if (layer_buf[0] + kEps < target) return {0, Scenario::kClustered, kmax};
  return {-1, Scenario::kClustered, kmax};
}

}  // namespace

FillDecision pick_fill_layer(const std::vector<double>& layer_buf,
                             int active_layers, double rate,
                             const AimdModel& model, int kmax,
                             AllocationPolicy policy, int prepare_layers,
                             int ladder_depth) {
  QA_CHECK(active_layers >= 1);
  QA_CHECK(static_cast<int>(layer_buf.size()) >= active_layers);
  QA_CHECK(kmax >= 1);

  const TargetTable targets(rate, active_layers, model);
  if (policy == AllocationPolicy::kEqualShare) {
    return pick_equal_share(layer_buf, active_layers, targets, kmax);
  }
  if (policy == AllocationPolicy::kBaseOnly) {
    return pick_base_only(layer_buf, targets, kmax);
  }

  const double tot_buf = total_of(layer_buf, active_layers);
  const auto below = [&](const TargetTable& table, Scenario s, int k, int i) {
    return layer_buf[static_cast<size_t>(i)] + kEps < table.share(s, k, i);
  };

  // ---- Stage 1: the §4.1 per-packet state walk, k <= Kmax. ----

  // First scenario-1 state (k <= Kmax) whose total is not yet buffered.
  int s1_k = 0;
  double buf_req1 = 0;
  bool s1_done = true;
  for (int k = 1; k <= kmax; ++k) {
    const double t = targets.total(Scenario::kClustered, k);
    if (t > tot_buf + kEps) {
      s1_k = k;
      buf_req1 = t;
      s1_done = false;
      break;
    }
  }

  // First scenario-2 state (k <= Kmax) not yet buffered.
  int s2_k = 0;
  double buf_req2 = std::numeric_limits<double>::infinity();
  for (int k = 1; k <= kmax; ++k) {
    const double t = targets.total(Scenario::kSpread, k);
    if (t > tot_buf + kEps) {
      s2_k = k;
      buf_req2 = t;
      break;
    }
  }

  // Work toward whichever unmet state requires less total buffering.
  if (!s1_done && buf_req1 <= buf_req2) {
    for (int i = 0; i < active_layers; ++i) {
      if (below(targets, Scenario::kClustered, s1_k, i)) {
        return {i, Scenario::kClustered, s1_k};
      }
    }
    // The total is unmet but every per-layer target is — possible when the
    // distribution is skewed upward; fall through to the scenario-2 branch.
  }

  if (s2_k > 0) {
    for (int i = 0; i < active_layers; ++i) {
      // Fig-10 cap: while scenario-1 states remain, a layer may only grow
      // while still below its next scenario-1 target.
      if (below(targets, Scenario::kSpread, s2_k, i) &&
          (s1_done || below(targets, Scenario::kClustered, s1_k, i))) {
        return {i, Scenario::kSpread, s2_k};
      }
    }
  }

  // Stage 1 fallbacks: any unmet scenario-1 layer (ignoring the branch
  // choice), then genuine sufficiency (suffix domination — higher layers
  // may substitute for lower ones, not vice versa) for every k <= Kmax
  // state. The gated walk can stall with buffers that cover the totals but
  // leave a top-suffix short; fill the lowest deprived layer of the first
  // violated suffix.
  if (!s1_done) {
    for (int i = 0; i < active_layers; ++i) {
      if (below(targets, Scenario::kClustered, s1_k, i)) {
        return {i, Scenario::kClustered, s1_k};
      }
    }
  }
  for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
    for (int k = 1; k <= kmax; ++k) {
      // Highest violated suffix start j (filling a layer >= j is the only
      // way to fix it), then the lowest layer at or above j still below
      // its own target.
      const int j = StateSequence::short_suffix(
          layer_buf, active_layers,
          [&](int i) { return targets.share(s, k, i); });
      if (j < 0) continue;
      for (int i = j; i < active_layers; ++i) {
        if (below(targets, s, k, i)) return {i, s, k};
      }
    }
  }

  // ---- Stage 2: prepare the prospective configuration. ----
  // Every k <= Kmax state is covered for the current layer set; if a layer
  // could be added, raise the existing layers to their shares in the
  // enlarged configuration so the smoothed add gate can open.
  if (prepare_layers > active_layers) {
    const TargetTable prepared(rate, prepare_layers, model);
    for (int k = 1; k <= kmax; ++k) {
      for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
        for (int i = 0; i < active_layers; ++i) {
          if (below(prepared, s, k, i)) return {i, s, k};
        }
      }
    }
  }

  // ---- Stage 3: the surplus ladder beyond Kmax (optional extension). ----
  // Both scenarios interleave (smaller total first): the spread states grow
  // the low layers' protection, the deep clustered states (H -> n_a*C)
  // spread real shares across ALL layers so prolonged rate collapses can be
  // bridged without starving the top.
  const int ladder_end = std::min(kmax + std::max(ladder_depth, 0), kSpreadCap);
  for (int k = kmax + 1; k <= ladder_end; ++k) {
    const double t1 = targets.total(Scenario::kClustered, k);
    const double t2 = targets.total(Scenario::kSpread, k);
    const Scenario order[2] = {t1 <= t2 ? Scenario::kClustered
                                        : Scenario::kSpread,
                               t1 <= t2 ? Scenario::kSpread
                                        : Scenario::kClustered};
    for (const Scenario s : order) {
      const double t = s == Scenario::kClustered ? t1 : t2;
      if (t <= tot_buf + kEps) continue;
      for (int i = 0; i < active_layers; ++i) {
        if (below(targets, s, k, i)) return {i, s, k};
      }
    }
  }

  return {-1, Scenario::kClustered, kmax};
}

}  // namespace qa::core
