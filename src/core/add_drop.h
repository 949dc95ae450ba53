// Coarse-grain layer add/drop control (§2.1, §2.2, §3.1).
//
// Adding (with smoothing): a layer is added only when (1) the instantaneous
// rate covers the existing layers plus the new one, and (2) the per-layer
// buffer targets of every optimal state up to Kmax backoffs — both
// scenarios — are met, so the enlarged stream can survive Kmax backoffs
// without losing the newcomer.
//
// Dropping: immediately after a backoff (and whenever a critical situation
// is discovered mid-drain) the highest layers are shed until the remaining
// consumption can be bridged by the buffered data: keep the largest n with
// n*C <= R + sqrt(2*S*total_buf). The base layer is always kept.
#pragma once

#include <vector>

#include "core/buffer_math.h"

namespace qa::core {

struct AddDropConfig {
  int kmax = 2;            // smoothing factor Kmax (>= 1)
  int max_layers = 10;     // layers available in the encoded stream
};

// Smoothed add decision (§3.1): true when a new layer should be added now.
bool should_add_layer(const std::vector<double>& layer_buf, int active_layers,
                      double rate, const AimdModel& model,
                      const AddDropConfig& cfg);

// Mid-drain critical check: with current rate below consumption, is the
// buffering still sufficient to finish the draining phase? False signals a
// critical situation (§2.2) and the caller should apply layers_to_keep.
bool draining_buffers_sufficient(double rate, int active_layers,
                                 double total_buf, const AimdModel& model);

}  // namespace qa::core
