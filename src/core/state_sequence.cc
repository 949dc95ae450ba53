#include "core/state_sequence.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace qa::core {

StateSequence::StateSequence(double rate, int active_layers,
                             const AimdModel& model, int kmax, bool monotone) {
  rebuild(rate, active_layers, model, kmax, monotone);
}

void StateSequence::reserve(int kmax, int layers) {
  const size_t n_states = 2 * static_cast<size_t>(std::max(kmax, 0));
  if (states_.size() < n_states) states_.resize(n_states);
  for (BufferState& st : states_) {
    st.raw_targets.reserve(static_cast<size_t>(layers));
    st.adjusted_targets.reserve(static_cast<size_t>(layers));
  }
}

void StateSequence::rebuild(double rate, int active_layers,
                            const AimdModel& model, int kmax, bool monotone) {
  QA_CHECK(active_layers >= 1);
  QA_CHECK(kmax >= 1);
  active_layers_ = active_layers;
  reserve(kmax, active_layers);
  size_ = 0;

  const TargetTable targets(rate, active_layers, model);
  for (const Scenario scenario : {Scenario::kClustered, Scenario::kSpread}) {
    for (int k = 1; k <= kmax; ++k) {
      if (!is_state(targets, scenario, k)) continue;
      BufferState& st = states_[size_++];
      st.scenario = scenario;
      st.k = k;
      st.total = targets.total(scenario, k);
      st.raw_targets.resize(static_cast<size_t>(active_layers));
      for (int layer = 0; layer < active_layers; ++layer) {
        st.raw_targets[static_cast<size_t>(layer)] =
            targets.share(scenario, k, layer);
      }
      st.adjusted_targets = st.raw_targets;
    }
  }

  std::sort(states_.begin(), states_.begin() + static_cast<ptrdiff_t>(size_),
            [](const BufferState& a, const BufferState& b) {
              if (std::abs(a.total - b.total) > kEps) return a.total < b.total;
              // Ties: scenario 1 first (it is the more flexible allocation).
              return static_cast<int>(a.scenario) < static_cast<int>(b.scenario);
            });

  if (monotone) apply_monotone_constraint();
}

void StateSequence::apply_monotone_constraint() {
  const size_t n_layers = static_cast<size_t>(active_layers_);
  // The previous state's allocation; none (all zero) before the first.
  const std::vector<double>* floor = nullptr;
  const auto floor_at = [&floor](size_t i) {
    return floor != nullptr ? (*floor)[i] : 0.0;
  };

  for (size_t idx = 0; idx < size_; ++idx) {
    BufferState& st = states_[idx];

    if (st.scenario == Scenario::kClustered) {
      // Scenario-1 states keep their optimal allocation; per-layer
      // monotonicity vs the previous state holds by construction (bands
      // grow with the deficit height, and preceding scenario-2 states were
      // capped at this state's targets).
      for (size_t i = 0; i < n_layers; ++i) {
        st.adjusted_targets[i] = std::max(st.raw_targets[i], floor_at(i));
      }
    } else {
      // Cap: the next scenario-1 state's raw targets (if any; else none).
      const std::vector<double>* cap = nullptr;
      for (size_t j = idx + 1; j < size_; ++j) {
        if (states_[j].scenario == Scenario::kClustered) {
          cap = &states_[j].raw_targets;
          break;
        }
      }
      const auto cap_at = [&cap](size_t i) {
        return cap != nullptr ? (*cap)[i]
                              : std::numeric_limits<double>::infinity();
      };
      auto& adj = st.adjusted_targets;
      double sum = 0;
      for (size_t i = 0; i < n_layers; ++i) {
        adj[i] = std::clamp(st.raw_targets[i], floor_at(i),
                            std::max(floor_at(i), cap_at(i)));
        sum += adj[i];
      }
      // Redistribute so the state's total requirement is preserved.
      if (sum < st.total - kEps) {
        // Add the shortfall bottom-up (lower layers buffer most
        // efficiently), respecting caps; any remainder goes top-down
        // ignoring caps (higher layers may always hold extra).
        double deficit = st.total - sum;
        for (size_t i = 0; i < n_layers && deficit > kEps; ++i) {
          const double room = std::max(0.0, cap_at(i) - adj[i]);
          const double add = std::min(room, deficit);
          adj[i] += add;
          deficit -= add;
        }
        for (size_t ri = n_layers; ri-- > 0 && deficit > kEps;) {
          adj[ri] += deficit;
          deficit = 0;
        }
      } else if (sum > st.total + kEps) {
        // Remove the excess top-down, never dipping below the floor.
        double excess = sum - st.total;
        for (size_t ri = n_layers; ri-- > 0 && excess > kEps;) {
          const double slack = std::max(0.0, adj[ri] - floor_at(ri));
          const double cut = std::min(slack, excess);
          adj[ri] -= cut;
          excess -= cut;
        }
        // Any remaining excess means the floors alone exceed this state's
        // total: the state is subsumed by what is already buffered; keep
        // the floors (never drain during filling).
      }
    }
    floor = &st.adjusted_targets;
  }
}

bool StateSequence::is_state(const TargetTable& targets, Scenario scenario,
                             int k) {
  // Scenario 2 with k <= k1 has no spread triangles: it is either empty or
  // identical to scenario 1 at k (both are the first triangle), so only the
  // scenario-1 copy is kept.
  if (scenario == Scenario::kSpread && k <= targets.k1()) return false;
  return targets.total(scenario, k) > kEps;
}

int StateSequence::last_covered(double total_buf) const {
  int last = -1;
  for (size_t i = 0; i < size_; ++i) {
    if (states_[i].total <= total_buf + kEps) last = static_cast<int>(i);
  }
  return last;
}

bool StateSequence::suffix_dominates(const std::vector<double>& layer_buf,
                                     const std::vector<double>& targets,
                                     int active_layers) {
  QA_CHECK(layer_buf.size() >= static_cast<size_t>(active_layers));
  QA_CHECK(targets.size() >= static_cast<size_t>(active_layers));
  return short_suffix(layer_buf, active_layers, [&targets](int i) {
           return targets[static_cast<size_t>(i)];
         }) < 0;
}

bool StateSequence::all_targets_met(const std::vector<double>& layer_buf) const {
  for (const BufferState& st : states()) {
    if (!suffix_dominates(layer_buf, st.raw_targets, active_layers_)) {
      return false;
    }
  }
  return true;
}

}  // namespace qa::core
