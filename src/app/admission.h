// Quality-aware admission control and overload load shedding for the
// server farm.
//
// AdmissionController gates join requests against a subjective-quality
// constraint: the analytic farm-load model (core::predict_session_quality)
// estimates the layer count one more session could sustain; joins that
// would push everyone below the minimum are rejected, marginal joins are
// downgraded to base-layer-only. A hysteresis band keeps the gate from
// oscillating as sessions churn near the threshold, and rejected clients
// retry with capped exponential backoff whose jitter is a pure function of
// (farm seed, client id, attempt) — runs stay digest-identical.
//
// LoadShedLadder is the farm-wide graceful-degradation state machine.
// Aggregate signals (bottleneck queue occupancy, fraction of sessions
// rebuffering) drive a monotone ladder:
//   kNormal -> kFreezeAdds (no layer adds farm-wide)
//           -> kBaseOnly   (every session drops to its base layer)
//           -> kShedSessions (evict newest sessions)
// Escalation takes one rung per dwell interval when a signal crosses its
// high-water mark (past kFreezeAdds only the rebuffer signal counts, in
// both directions: AIMD keeps a drop-tail queue standing at any load, so
// queue occupancy alone neither justifies harming users nor blocks
// releasing them). The wide hysteresis band plus the dwell time make a
// direction reversal inside the flap window a genuine oscillation, which
// the ladder counts (tests assert zero).
#pragma once

#include <cstdint>

#include "core/analytic_model.h"
#include "util/time.h"

namespace qa::app {

enum class AdmissionDecision {
  kAdmit,          // full quality: all layers available
  kAdmitBaseOnly,  // degraded admit: base layer only
  kReject,         // no capacity; client may retry with backoff
};

const char* to_string(AdmissionDecision d);

// Admission design values of the subjective-quality model, not deployment
// settings. Predicted-quality thresholds are in layers (continuous: the
// analytic model's usable-share / consumption-rate score, see decide()).
//
// >= this: admit base-only; below: reject. Base-only admits still need 20%
// slack beyond one bare layer: a session whose share covers exactly C has
// nothing left for transport overhead and loss recovery, and lives pinned
// to the rebuffer threshold.
inline constexpr double kMinQualityLayers = 1.2;

// Retry policy for rejected clients: capped exponential backoff with
// deterministic seed-derived jitter.
inline constexpr TimeDelta kRetryBase = TimeDelta::seconds(1);
inline constexpr TimeDelta kRetryCap = TimeDelta::seconds(16);
inline constexpr int kMaxRetries = 6;
inline constexpr double kRetryJitterFrac = 0.25;  // delay *= 1 + frac * U[0,1)
static_assert(kRetryBase > TimeDelta::zero());
static_assert(kRetryCap >= kRetryBase);

// Current farm load as seen at a join request; the controller fills in the
// model constants.
struct JoinRequest {
  int active_sessions = 0;      // sessions already streaming
  double bottleneck_bps = 0;    // shared bottleneck bandwidth (bytes/s)
  double access_bps = 0;        // this client's access cap (bytes/s)
  double consumption_rate = 0;  // C, bytes/s per layer
  int max_layers = 1;
  double slope = 0;             // S, bytes/s^2 (0 = skip buffering check)
};

class AdmissionController {
 public:
  explicit AdmissionController(uint64_t seed) : seed_(seed) {}

  // Decides one join request. Stateful only through the hysteresis gate
  // and counters; the quality score itself is a pure function of `req`.
  AdmissionDecision decide(const JoinRequest& req);

  // While the load-shed ladder is at kBaseOnly or worse the farm stops
  // taking newcomers entirely; admitting into an overload and then
  // shedding would itself be admit/evict oscillation.
  void set_shedding(bool shedding) { shedding_ = shedding; }

  // Continuous predicted-quality score (layers) used by decide().
  double quality_score(const JoinRequest& req) const;

  // Backoff before retry `attempt` (0-based). Pure function of the
  // controller seed, the client id and the attempt number.
  TimeDelta retry_delay(uint64_t client_id, int attempt) const;
  bool retry_allowed(int attempt) const { return attempt < kMaxRetries; }

  bool gate_closed() const { return gate_closed_; }
  int64_t admitted() const { return admitted_; }
  int64_t admitted_base_only() const { return admitted_base_; }
  int64_t rejected() const { return rejected_; }
  int64_t gate_transitions() const { return gate_transitions_; }

 private:
  uint64_t seed_;
  bool shedding_ = false;
  // Closed after a reject; reopening requires kReopenHeadroomLayers of
  // extra predicted quality.
  bool gate_closed_ = false;
  int64_t admitted_ = 0;
  int64_t admitted_base_ = 0;
  int64_t rejected_ = 0;
  int64_t gate_transitions_ = 0;
};

enum class ShedLevel {
  kNormal = 0,
  kFreezeAdds = 1,
  kBaseOnly = 2,
  kShedSessions = 3,
};

const char* to_string(ShedLevel level);

// Ladder design values. The rebuffer signal's high-water mark, as a
// fraction of active sessions rebuffering:
inline constexpr double kRebufferHi = 0.25;
// Minimum time between level changes (one rung per dwell). Release is
// deliberately slower than grip: de-escalating early and re-escalating
// is exactly the oscillation the ladder must avoid.
inline constexpr TimeDelta kDwell = TimeDelta::seconds(5);
inline constexpr TimeDelta kDwellDown = TimeDelta::seconds(12);
static_assert(kDwell > TimeDelta::zero());
static_assert(kDwellDown >= kDwell);

class LoadShedLadder {
 public:
  // Feeds one periodic aggregate sample; returns the (possibly changed)
  // level, changing at most one rung per dwell interval. From kNormal
  // either hot signal escalates; past kFreezeAdds only the rebuffer
  // signal escalates, and clearing it releases those rungs. Leaving
  // kFreezeAdds for kNormal additionally requires the queue to drain.
  ShedLevel update(TimePoint now, double queue_frac, double rebuffer_frac);

  ShedLevel level() const { return level_; }
  int64_t escalations() const { return escalations_; }
  int64_t deescalations() const { return deescalations_; }
  int64_t oscillation_events() const { return oscillations_; }

 private:
  ShedLevel level_ = ShedLevel::kNormal;
  TimePoint last_change_ = TimePoint::origin();
  int last_dir_ = 0;  // +1 escalated, -1 de-escalated, 0 never changed
  int64_t escalations_ = 0;
  int64_t deescalations_ = 0;
  int64_t oscillations_ = 0;
};

}  // namespace qa::app
