// The ordered sequence of optimal buffer states (§3.2, §4, figs 8–10).
//
// For a given rate, layer count and smoothing factor Kmax, the filling phase
// traverses the optimal buffer states {scenario, k} in increasing order of
// total required buffering; the draining phase walks the same sequence in
// reverse. Raw per-layer targets for scenario-2 states are not per-layer
// monotone along that order (fig 9: reaching some states would require
// draining a layer mid-fill), so each scenario-2 state's allocation is
// constrained to lie between the previous state's allocation (floor — never
// drain while filling) and the next scenario-1 state's allocation (cap —
// higher-layer buffer can substitute for lower-layer buffer, not vice
// versa), redistributing to preserve the state's total (fig 10).
#pragma once

#include <span>
#include <vector>

#include "core/buffer_math.h"

namespace qa::core {

struct BufferState {
  Scenario scenario = Scenario::kClustered;
  int k = 0;                             // number of backoffs survived
  double total = 0;                      // total required buffering (bytes)
  std::vector<double> raw_targets;       // optimal per-layer shares (bytes)
  std::vector<double> adjusted_targets;  // after the monotonicity constraint
};

class StateSequence {
 public:
  // An empty sequence; rebuild() fills it.
  StateSequence() = default;

  // Builds the sequence for scenario-1 and scenario-2 states with
  // k = 1..kmax each (zero-total and duplicate states skipped), ordered by
  // ascending total. `monotone` disables the fig-10 adjustment for the
  // ablation study (adjusted == raw then).
  StateSequence(double rate, int active_layers, const AimdModel& model,
                int kmax, bool monotone = true);

  // Replaces the sequence with the one the constructor would build. The
  // state and target storage is reused, so once it has grown to
  // 2*kmax states of active_layers targets a rebuild allocates nothing.
  void rebuild(double rate, int active_layers, const AimdModel& model,
               int kmax, bool monotone = true);

  // Grows the storage for up to `kmax` and `layers` ahead of time.
  void reserve(int kmax, int layers);

  // Valid until the next rebuild().
  std::span<const BufferState> states() const {
    return {states_.data(), size_};
  }
  int active_layers() const { return active_layers_; }

  // Index of the deepest (largest-total) state whose total requirement is
  // covered by `total_buf`; -1 when even the first state is not covered.
  int last_covered(double total_buf) const;

  // True when the buffering suffices for every state in the sequence —
  // i.e. the stream can survive kmax backoffs in both scenarios (smoothed
  // add condition, §3.1). Sufficiency honors the substitution direction of
  // §4 (buffered data for a higher layer can compensate for a lower layer,
  // never the reverse): for each state, every top-suffix of the buffer
  // vector must dominate the same suffix of the state's raw targets.
  bool all_targets_met(const std::vector<double>& layer_buf) const;

  // Whether (scenario, k) is one of the sequence's states at the table's
  // rate and layer count: zero-total states are skipped, and so are
  // scenario-2 states with k <= k1, which equal the scenario-1 state at k.
  static bool is_state(const TargetTable& targets, Scenario scenario, int k);

  // Sufficiency check for one target vector under the substitution rule
  // above.
  static bool suffix_dominates(const std::vector<double>& layer_buf,
                               const std::vector<double>& targets,
                               int active_layers);

  // The same check against targets computed on the fly (`target(i)` is
  // layer i's target): the start j of the highest top suffix [j, n) whose
  // buffering falls short of its targets, or -1 when every suffix is
  // covered. Filling a layer >= j is the only way to fix that suffix.
  template <typename TargetFn>
  static int short_suffix(const std::vector<double>& layer_buf,
                          int active_layers, TargetFn target) {
    double buf_cum = 0, target_cum = 0;
    for (int i = active_layers - 1; i >= 0; --i) {
      buf_cum += layer_buf[static_cast<size_t>(i)];
      target_cum += target(i);
      if (buf_cum + kEps < target_cum) return i;
    }
    return -1;
  }

 private:
  static constexpr double kEps = 1e-9;
  void apply_monotone_constraint();

  int active_layers_ = 0;
  // states_[0, size_) is the sequence; later entries are spare storage.
  std::vector<BufferState> states_;
  size_t size_ = 0;
};

}  // namespace qa::core
