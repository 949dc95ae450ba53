// Filling-phase bandwidth allocation: which layer gets the next packet.
//
// Implements the per-packet algorithm of §4.1: find the first scenario-1
// state (k <= Kmax) and the first scenario-2 state not yet covered by the
// total buffering; work toward whichever needs less total buffering; within
// the chosen state fill the lowest layer that is below its per-layer
// target. When working toward a scenario-2 state, a layer may only be
// filled while it is still below its target in the next scenario-1 state
// (the fig-10 cap — never over-fill a low layer in a way that a later
// state would have to undo). Scenario-2 states continue past Kmax so that
// surplus bandwidth keeps deepening the buffers when a new layer cannot be
// added (the 2.9-layer modem case of §3.1).
//
// The two strawman allocations of §2.3 (equal share per layer; everything
// to the base layer) are implemented behind the same interface for the
// ablation benchmark.
#pragma once

#include <vector>

#include "core/buffer_math.h"

namespace qa::core {

enum class AllocationPolicy {
  kOptimal = 0,     // the paper's mechanism
  kEqualShare = 1,  // §2.3 strawman: equal buffer share per layer
  kBaseOnly = 2,    // §2.3 strawman: all buffering on the base layer
};

struct FillDecision {
  int layer = -1;  // layer to send next; -1 = every target met
  Scenario working_scenario = Scenario::kClustered;
  int working_k = 0;
};

// Picks the layer for the next packet during a filling phase.
// `layer_buf` holds the (sender-mirrored) per-layer receiver buffers for
// the active layers. `rate` is the instantaneous transmission rate.
//
// Selection stages:
//   1. the §4.1 state walk over k <= kmax (both scenarios, fig-10 gate);
//   2. when `prepare_layers` > active_layers: fill the existing layers up
//      to their targets in the `prepare_layers`-sized configuration, so the
//      smoothed add gate can open with the newcomer already protected;
//   3. optionally (`ladder_depth` > 0) the state ladder for up to
//      `ladder_depth` extra backoffs beyond kmax — keep deepening buffers
//      when no layer can be added (the 2.9-layer modem case of §3.1). At
//      depth 0 the decision returns -1 once all targets are met: receiver
//      buffering stays bounded by the Kmax requirement as in the paper
//      (footnote 2), and the caller sends padding or idles.
FillDecision pick_fill_layer(const std::vector<double>& layer_buf,
                             int active_layers, double rate,
                             const AimdModel& model, int kmax,
                             AllocationPolicy policy = AllocationPolicy::kOptimal,
                             int prepare_layers = 0,
                             int ladder_depth = 0);

}  // namespace qa::core
