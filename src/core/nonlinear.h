// Non-linear layer spacing — the paper's §7 future work.
//
// The paper's analysis assumes every layer consumes the same rate C; real
// hierarchical codecs often use a larger base layer and thinner
// enhancements. The optimal-allocation geometry generalizes directly:
// slicing the deficit triangle into horizontal bands of per-layer
// thickness C_i (band boundaries at the cumulative consumption rates)
// instead of uniform C. This module provides that generalized math —
// totals, per-layer shares, and a survivability test with heterogeneous
// drain caps.
//
// The shares reduce exactly to buffer_math's uniform formulas when all
// rates are equal (property-tested).
#pragma once

#include <vector>

#include "core/buffer_math.h"

namespace qa::core {

// Consumption profile of an active layer set, base first, bytes/s each.
class LayerProfile {
 public:
  explicit LayerProfile(std::vector<double> rates);

  int layers() const { return static_cast<int>(rates_.size()); }
  double rate(int layer) const;
  // Sum of the first `n` layers' rates (band boundary below layer n).
  double cumulative(int n) const;
  double total() const { return cumulative(layers()); }
  const std::vector<double>& rates() const { return rates_; }

 private:
  std::vector<double> rates_;
  std::vector<double> cumulative_;  // cumulative_[i] = sum of rates_[0..i-1]
};

// Optimal share of `layer` for a deficit triangle of `height` (bytes/s):
// the band between the layer's cumulative boundaries, clipped at the apex.
// Sums over layers to triangle_area(height, slope) when the profile covers
// the height.
double nl_band_share(double height, int layer, const LayerProfile& profile,
                     double slope);

// Generalizations of total_buf_required / layer_buf_required for the
// clustered (scenario 1) and spread (scenario 2) backoff extremes.
double nl_total_required(Scenario scenario, int k, double rate,
                         const LayerProfile& profile, double slope);
double nl_layer_required(Scenario scenario, int k, int layer, double rate,
                         const LayerProfile& profile, double slope);

// Survivability of a draining phase with heterogeneous drain caps: layer i
// can play from buffer at most at rate(i). Feasible iff, pairing the bands
// greedily (each band level ℓ demands a continuous supply of the band's
// thickness), buffers majorize the band profile with per-layer caps
// rate(i) * recovery_time. With heterogeneous rates the test pairs the
// largest capped buffers with the largest bands (exact for the uniform
// case; a safe lower bound in general).
bool nl_drain_feasible(double rate, const LayerProfile& profile,
                       const std::vector<double>& layer_buf, double slope);

}  // namespace qa::core
