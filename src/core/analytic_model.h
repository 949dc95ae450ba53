// Deterministic AIMD rate trajectories.
//
// The conceptual figures of the paper (2–6) and the trace-driven harness
// need a transmission-rate signal with exactly placed backoffs, independent
// of any packet network: rate rises linearly at slope S and halves at each
// backoff instant, optionally capped by a link bandwidth (in which case the
// sawtooth of fig 1 emerges by inserting a backoff at every cap crossing).
//
// Lookup cost: rate_at is O(log B) in the number of backoffs B — a binary
// search plus one multiply-add. The trajectory stores, for every backoff,
// the rate just after it (invariant: post_rates_[i] is the rate the linear
// recurrence "grow from the previous backoff, clamp at the cap, halve"
// yields at backoffs_[i]). add_backoff extends that table with the same
// recurrence and set_rate_cap rebuilds it, so every query returns exactly
// the value a walk over all earlier backoffs would.
#pragma once

#include <cstddef>
#include <vector>

#include "core/buffer_math.h"

namespace qa::core {

class AimdTrajectory {
 public:
  // Rates in bytes/s, slope in bytes/s per second.
  AimdTrajectory(double initial_rate, double slope);

  // Adds a multiplicative backoff at absolute time `t_sec` (strictly after
  // any previously added backoff).
  void add_backoff(double t_sec);

  // Caps the linear growth (e.g. at a link bandwidth). 0 = uncapped.
  // May be called after backoffs were added; the post-backoff rates are
  // recomputed under the new cap.
  void set_rate_cap(double cap);

  // Instantaneous rate at time t (piecewise linear, halving at backoffs).
  // A backoff at exactly `t_sec` has already happened. O(log B).
  double rate_at(double t_sec) const;

  // Backoffs at or before `t_sec` (count), for scenario bookkeeping.
  int backoffs_before(double t_sec) const;

  const std::vector<double>& backoff_times() const { return backoffs_; }
  double slope() const { return slope_; }
  double initial_rate() const { return initial_rate_; }
  double rate_cap() const { return cap_; }

  // Classic sawtooth (fig 1): starts at `initial_rate`, grows at `slope`,
  // and backs off every time the rate reaches `cap`, until `duration_sec`.
  static AimdTrajectory sawtooth(double initial_rate, double slope,
                                 double cap, double duration_sec);

 private:
  double initial_rate_;
  double slope_;
  // Linear growth from `rate` over `dt` seconds, clamped at the cap.
  double grow(double rate, double dt) const;
  // Rate just after backoff `i`, from the rate just after backoff i-1.
  double post_rate(std::size_t i) const;

  double cap_ = 0;
  std::vector<double> backoffs_;   // ascending
  std::vector<double> post_rates_;  // rate just after each backoff
};

// --- Farm-load quality prediction (admission control's analytic hook). ----
//
// A server farm admitting a join request needs the expected quality of one
// more congestion-controlled session *before* any packets flow. The model
// is the paper's own AIMD geometry applied to the per-session fair share:
// with n sessions on a bottleneck of bandwidth B, each TCP-friendly flow
// converges to a share of roughly B/n (capped by its access link); the AIMD
// sawtooth oscillates around that mean, so the sustainable steady quality
// is the largest layer count whose consumption fits under the share with a
// utilization margin (headroom for queueing, ACK overhead, and the
// post-backoff trough), and whose kmax-backoff protection buffering is
// attainable: the deficit triangle of kmax clustered backoffs from the
// share peak must be refillable within one additive-increase recovery.
struct FarmLoadModel {
  double bottleneck_bps = 0;       // shared bottleneck bandwidth (bytes/s)
  int sessions = 1;                // concurrent sessions, candidate included
  double access_bps = 0;           // candidate's access-link cap (bytes/s)
  double consumption_rate = 0;     // C: per-layer consumption (bytes/s)
  int max_layers = 1;              // layers available in the stream
  int kmax = 2;                    // smoothing factor the adapter protects
  double slope = 0;                // S: AIMD slope (bytes/s per second)
  double utilization_margin = 0.85;  // fraction of the share usable for media
};

struct QualityPrediction {
  double fair_share_bps = 0;     // per-session share after the access cap
  double usable_bps = 0;         // share * margin: what media can consume
  int sustainable_layers = 0;    // predicted steady active-layer count
  // usable_bps / C - sustainable_layers: fractional spare capacity beyond
  // the predicted layer count (admission hysteresis reads this).
  double headroom_layers = 0;
};

// Pure function of the model — no simulator state, deterministic, cheap
// enough to evaluate per join request.
QualityPrediction predict_session_quality(const FarmLoadModel& model);

}  // namespace qa::core
