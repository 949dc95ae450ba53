// Closed-form buffer mathematics of the paper (§2.1–2.4, §4.1, Appendix A).
//
// Geometry: the congestion controller's rate is a sawtooth in rate x time
// space. After backoffs push the rate below the total consumption rate
// n_a*C, the missing data ("deficit") is the area between the consumption
// line and the rising rate line — a right triangle of height H (the initial
// rate shortfall) and base H/S, where S is the AIMD linear-increase slope.
// Its area is H^2 / 2S.
//
// Optimal inter-layer allocation (§2.4): slice that triangle into
// horizontal bands of thickness C. A single layer can drain its buffer at
// most at its consumption rate C, so the band adjacent to the base of the
// triangle (the widest) is the largest amount one layer can usefully
// contribute — it goes to layer 0; the next band to layer 1; and so on.
// Buffered data above a layer's band could never be played in time if that
// layer were dropped, so banding maximizes the buffering's usefulness.
//
// Backoff scenarios for smoothing (§4): for k total backoffs,
//   scenario 1 (clustered): all k backoffs hit at once -> one big triangle
//     with H1 = n_a*C - R/2^k. Needs the *most* buffering layers.
//   scenario 2 (spread):    k1 = min backoffs to get below consumption hit
//     first (triangle H = n_a*C - R/2^k1), then each of the remaining k-k1
//     backoffs occurs after the rate has just recovered to n_a*C, adding a
//     standard triangle of height n_a*C/2. Needs the *fewest* buffering
//     layers for the same k. Intermediate timings fall between the two.
//
// All quantities are doubles in bytes and bytes/second; the caller supplies
// C (per-layer consumption) and S (AIMD slope, bytes/s per second).
#pragma once

#include <vector>

namespace qa::core {

// Which backoff-timing extreme a buffer target refers to (§4, fig 7).
enum class Scenario {
  kClustered = 1,  // "scenario 1": all k backoffs at once
  kSpread = 2,     // "scenario 2": backoffs spaced a full recovery apart
};

// AIMD model parameters the QA formulas need.
struct AimdModel {
  double consumption_rate = 0;  // C: per-layer consumption, bytes/s
  double slope = 0;             // S: linear increase, bytes/s per second
};

// Area of the deficit triangle with initial shortfall `height` (bytes/s):
// height^2 / 2S. Zero for non-positive height.
double triangle_area(double height, double slope);

// Share of the deficit triangle assigned to `layer` by the optimal banding:
// the band between heights [layer*C, (layer+1)*C], clipped at the apex.
// Sums over all layers to triangle_area(height, slope).
double band_share(double height, int layer, double consumption_rate,
                  double slope);

// Number of buffering layers n_b needed to absorb a shortfall of `height`:
// ceil(height / C). Zero for non-positive height.
int buffering_layers(double height, double consumption_rate);

// Smallest k >= 1 such that rate / 2^k < total consumption n_a*C; the
// minimum number of clustered backoffs before a draining phase exists
// (k1 in Appendix A.4). Capped at 64.
int min_backoffs_to_drain(double rate, int active_layers,
                          double consumption_rate);

// The §4.1 buffer targets of one decision: every (scenario, k) total and
// per-layer share at a fixed rate, layer count and model. The consumption
// n_a*C, k1 and the scenario-2 first-triangle height are computed once, at
// construction; a per-layer share is then one band_share (two for
// scenario 2). The free functions below, the filling walk, the state
// sequence and the add gate all read their targets from this table, so the
// formulas have one home. Values are bit-identical to evaluating each
// target from scratch: the hoisted quantities are the same expressions on
// the same inputs.
class TargetTable {
 public:
  TargetTable(double rate, int active_layers, const AimdModel& model);

  // k1: the fewest clustered backoffs that start a draining phase.
  int k1() const { return k1_; }

  // Initial shortfall (triangle height) for `k` backoffs under `scenario`.
  // For scenario 2 this is the height of the *first* triangle.
  double height(Scenario scenario, int k) const;
  // TotalBufRequired (§4.1) for `k` backoffs under `scenario`.
  double total(Scenario scenario, int k) const;
  // BufRequired (§4.1): `layer`'s band of the same deficit.
  double share(Scenario scenario, int k, int layer) const;

 private:
  double rate_;
  int active_layers_;
  AimdModel model_;
  double consumption_;     // n_a*C
  int k1_;
  double spread_height_;   // scenario 2's first triangle, for any k >= k1
};

// Initial shortfall (triangle height) for `k` backoffs under `scenario`
// starting from transmission rate `rate` with `active_layers` layers.
// For scenario 2 this is the height of the *first* triangle.
double deficit_height(Scenario scenario, int k, double rate,
                      int active_layers, const AimdModel& model);

// TotalBufRequired (§4.1): total receiver buffering needed to keep all
// `active_layers` layers through `k` backoffs under `scenario`.
double total_buf_required(Scenario scenario, int k, double rate,
                          int active_layers, const AimdModel& model);

// BufRequired (§4.1): the maximally-efficient buffer share of `layer` for
// the same situation. Sums over layers to total_buf_required.
double layer_buf_required(Scenario scenario, int k, int layer, double rate,
                          int active_layers, const AimdModel& model);

// Dropping mechanism (§2.2): given the post-backoff transmission rate and
// the aggregate buffered bytes, returns how many layers can be kept:
// the largest n <= active_layers with n*C <= rate + sqrt(2*S*total_buf),
// never less than 1 (the base layer is always sent).
int layers_to_keep(double rate_post_backoff, int active_layers,
                   double total_buf, const AimdModel& model);

// Exact survivability of a draining phase given the PER-LAYER buffers.
// The aggregate rule above assumes the total is ideally distributed; in
// reality a layer can play from its buffer at most at rate C, so the
// deficit's band profile must be matched by the buffer profile. Because
// any buffered layer may be the one playing from buffer at a given
// instant (higher-layer data substitutes downward), layer identity does
// not matter for survival: feasibility is majorization — for every k, the
// k largest buffers (each capped at C times the recovery duration) must
// cover the k largest bands of the deficit triangle.
bool drain_feasible(double rate, int n_layers,
                    const std::vector<double>& layer_buf,
                    const AimdModel& model);

// The drop rule refined with the per-layer feasibility test: the largest
// n <= active_layers whose first n layers' buffers make the recovery from
// `rate` feasible. Never below 1.
int layers_sustainable(double rate, int active_layers,
                       const std::vector<double>& layer_buf,
                       const AimdModel& model);

// Basic (un-smoothed) add conditions of §2.1: instantaneous rate covers the
// existing layers plus one, and total buffering covers one immediate
// backoff with the new layer included.
bool basic_add_conditions(double rate, int active_layers, double total_buf,
                          const AimdModel& model);

}  // namespace qa::core
