#include "app/admission.h"

#include <algorithm>
#include <cmath>

#include "core/quality_adapter.h"
#include "util/rng.h"

namespace qa::app {

const char* to_string(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kAdmitBaseOnly:
      return "admit_base_only";
    case AdmissionDecision::kReject:
      return "reject";
  }
  return "?";
}

const char* to_string(ShedLevel level) {
  switch (level) {
    case ShedLevel::kNormal:
      return "normal";
    case ShedLevel::kFreezeAdds:
      return "freeze_adds";
    case ShedLevel::kBaseOnly:
      return "base_only";
    case ShedLevel::kShedSessions:
      return "shed_sessions";
  }
  return "?";
}

namespace {
// >= this: admit at full quality.
constexpr double kFullQualityLayers = 2.0;
static_assert(kMinQualityLayers <= kFullQualityLayers);
// Extra quality required to re-open the gate after it rejected — the
// hysteresis band that prevents admit/reject flapping at the threshold.
constexpr double kReopenHeadroomLayers = 0.25;
static_assert(kReopenHeadroomLayers >= 0);

constexpr double kQueueHi = 0.85;  // bottleneck queue occupancy fraction
constexpr double kQueueLo = 0.50;
static_assert(kQueueLo <= kQueueHi);
constexpr double kRebufferLo = 0.05;
static_assert(kRebufferLo <= kRebufferHi);
// Re-escalating within this window of a de-escalation counts as an
// oscillation event (the ladder released too early and re-gripped).
constexpr TimeDelta kFlapWindow = TimeDelta::seconds(10);
}  // namespace

double AdmissionController::quality_score(const JoinRequest& req) const {
  core::FarmLoadModel model;
  model.bottleneck_bps = req.bottleneck_bps;
  model.sessions = req.active_sessions + 1;  // candidate included
  model.access_bps = req.access_bps;
  model.consumption_rate = req.consumption_rate;
  model.max_layers = req.max_layers;
  // The Kmax every farm session runs: the farm leaves the adapter's.
  model.kmax = core::AdapterConfig{}.kmax;
  model.slope = req.slope;
  const core::QualityPrediction pred = core::predict_session_quality(model);
  // Continuous score: the integer sustainable count plus up to one layer
  // of fractional headroom. Capping the fraction keeps a fat pipe from
  // scoring absurdly high when the buffering constraint is what binds.
  return static_cast<double>(pred.sustainable_layers) +
         std::clamp(pred.headroom_layers, 0.0, 1.0);
}

AdmissionDecision AdmissionController::decide(const JoinRequest& req) {
  if (shedding_) {
    ++rejected_;
    if (!gate_closed_) {
      gate_closed_ = true;
      ++gate_transitions_;
    }
    return AdmissionDecision::kReject;
  }
  const double score = quality_score(req);
  // While the gate is closed, every threshold shifts up by the hysteresis
  // band: the load must visibly recede before the farm takes traffic again.
  const double lift = gate_closed_ ? kReopenHeadroomLayers : 0.0;

  AdmissionDecision d;
  if (score >= kFullQualityLayers + lift) {
    d = AdmissionDecision::kAdmit;
    ++admitted_;
  } else if (score >= kMinQualityLayers + lift) {
    d = AdmissionDecision::kAdmitBaseOnly;
    ++admitted_base_;
  } else {
    d = AdmissionDecision::kReject;
    ++rejected_;
  }
  const bool close = (d == AdmissionDecision::kReject);
  if (close != gate_closed_) {
    gate_closed_ = close;
    ++gate_transitions_;
  }
  return d;
}

TimeDelta AdmissionController::retry_delay(uint64_t client_id,
                                           int attempt) const {
  const int shift = std::clamp(attempt, 0, 30);
  double delay_s =
      kRetryBase.sec() * static_cast<double>(uint64_t{1} << shift);
  delay_s = std::min(delay_s, kRetryCap.sec());
  // Jitter derived purely from (seed, client, attempt): the same farm run
  // always produces the same retry schedule.
  uint64_t state = seed_ ^ (client_id * 0x9E3779B97F4A7C15ULL) ^
                   (static_cast<uint64_t>(shift) + 1) * 0xD1B54A32D192ED03ULL;
  const uint64_t bits = splitmix64(state);
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
  return TimeDelta::from_sec(delay_s * (1.0 + kRetryJitterFrac * u));
}

ShedLevel LoadShedLadder::update(TimePoint now, double queue_frac,
                                 double rebuffer_frac) {
  const bool queue_hot = queue_frac >= kQueueHi;
  const bool rebuffer_hot = rebuffer_frac >= kRebufferHi;
  const bool hot = queue_hot || rebuffer_hot;
  const bool cool_rebuffer = rebuffer_frac <= kRebufferLo;
  const bool cool_queue = queue_frac <= kQueueLo;

  // A standing queue is what AIMD flows do to a drop-tail bottleneck at
  // any load — on its own it justifies only the gentle rung (stop adding
  // layers). Degrading or evicting users requires user-visible harm: the
  // rebuffer signal must be hot to climb past kFreezeAdds.
  const bool may_escalate =
      level_ == ShedLevel::kNormal ? hot : rebuffer_hot;
  // Release is the mirror image: the harm-driven rungs (kBaseOnly and
  // above) let go once rebuffering clears, even though AIMD still keeps
  // the bottleneck queue standing — it always does. Only the queue-driven
  // kFreezeAdds rung waits for the queue itself to drain.
  const bool may_release = level_ >= ShedLevel::kBaseOnly
                               ? cool_rebuffer
                               : (cool_rebuffer && cool_queue);

  if (last_dir_ != 0) {
    const TimeDelta since = now - last_change_;
    if (since < kDwell) return level_;
    if (!may_escalate && since < kDwellDown) return level_;
  }

  int dir = 0;
  if (may_escalate && level_ != ShedLevel::kShedSessions) {
    level_ = static_cast<ShedLevel>(static_cast<int>(level_) + 1);
    dir = 1;
    ++escalations_;
  } else if (may_release && level_ != ShedLevel::kNormal) {
    level_ = static_cast<ShedLevel>(static_cast<int>(level_) - 1);
    dir = -1;
    ++deescalations_;
  }
  if (dir != 0) {
    // Oscillation = re-escalating soon after a de-escalation: the ladder
    // released and immediately regretted it. The opposite reversal
    // (escalate, then step down once the signal clears) is the ladder
    // doing its job, not flapping.
    if (dir == 1 && last_dir_ == -1 && now - last_change_ < kFlapWindow) {
      ++oscillations_;
    }
    last_dir_ = dir;
    last_change_ = now;
  }
  return level_;
}

}  // namespace qa::app
