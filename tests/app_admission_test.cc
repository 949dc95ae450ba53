// Admission control and load-shedding ladder unit tests: the analytic
// quality prediction's monotonicity, the admit/downgrade/reject thresholds
// with their hysteresis gate, the deterministic retry backoff, and the
// ladder's dwell/flap semantics.
#include "app/admission.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/analytic_model.h"

namespace qa::app {
namespace {

JoinRequest typical_request(int active) {
  JoinRequest req;
  req.active_sessions = active;
  req.bottleneck_bps = 50'000;   // 50 kB/s shared
  req.access_bps = 500'000;      // access never the cap here
  req.consumption_rate = 2'500;  // C
  req.max_layers = 4;
  req.slope = 2'500;             // S
  return req;
}

TEST(QualityPrediction, MoreSessionsMeansLowerQuality) {
  core::FarmLoadModel model;
  model.bottleneck_bps = 100'000;
  model.access_bps = 1e9;
  model.consumption_rate = 2'500;
  model.max_layers = 8;
  model.slope = 2'500;

  double prev_share = 1e18;
  int prev_layers = 1 << 20;
  for (int sessions : {1, 2, 4, 8, 16, 32}) {
    model.sessions = sessions;
    const core::QualityPrediction pred = core::predict_session_quality(model);
    EXPECT_LE(pred.fair_share_bps, prev_share);
    EXPECT_LE(pred.sustainable_layers, prev_layers);
    EXPECT_GE(pred.sustainable_layers, 0);
    EXPECT_LE(pred.sustainable_layers, model.max_layers);
    prev_share = pred.fair_share_bps;
    prev_layers = pred.sustainable_layers;
  }
}

TEST(QualityPrediction, AccessLinkCapsTheShare) {
  core::FarmLoadModel model;
  model.bottleneck_bps = 1'000'000;
  model.sessions = 2;  // nominal share 500 kB/s
  model.access_bps = 5'000;
  model.consumption_rate = 2'500;
  model.max_layers = 8;
  const core::QualityPrediction pred = core::predict_session_quality(model);
  EXPECT_DOUBLE_EQ(pred.fair_share_bps, 5'000);
  // usable = 5000 * 0.85 = 4250: one layer fits, two (5000) do not.
  EXPECT_EQ(pred.sustainable_layers, 1);
}

TEST(QualityPrediction, MarginShrinksUsableShare) {
  core::FarmLoadModel model;
  model.bottleneck_bps = 10'000;
  model.sessions = 1;
  model.consumption_rate = 2'500;
  model.max_layers = 8;
  model.utilization_margin = 1.0;
  const int full = core::predict_session_quality(model).sustainable_layers;
  model.utilization_margin = 0.5;
  const int half = core::predict_session_quality(model).sustainable_layers;
  EXPECT_LT(half, full);
}

TEST(AdmissionController, ThresholdsAdmitDowngradeReject) {
  AdmissionController ctl(7);
  // Plenty of capacity: full admit.
  EXPECT_EQ(ctl.decide(typical_request(2)), AdmissionDecision::kAdmit);
  // Tighter: base-only band.
  AdmissionDecision mid = ctl.decide(typical_request(12));
  EXPECT_EQ(mid, AdmissionDecision::kAdmitBaseOnly);
  // Saturated: reject.
  EXPECT_EQ(ctl.decide(typical_request(40)), AdmissionDecision::kReject);
  EXPECT_EQ(ctl.admitted(), 1);
  EXPECT_EQ(ctl.admitted_base_only(), 1);
  EXPECT_EQ(ctl.rejected(), 1);
}

TEST(AdmissionController, ScoreIsMonotoneInLoad) {
  AdmissionController ctl(7);
  double prev = 1e18;
  for (int active = 0; active <= 40; active += 4) {
    const double score = ctl.quality_score(typical_request(active));
    EXPECT_LE(score, prev) << "active " << active;
    prev = score;
  }
}

TEST(AdmissionController, HysteresisGateRequiresHeadroomToReopen) {
  AdmissionController ctl(7);

  // Find the marginal load: the last active count still admitted somehow.
  int reject_at = -1;
  for (int active = 0; active <= 60; ++active) {
    if (ctl.quality_score(typical_request(active)) < kMinQualityLayers) {
      reject_at = active;
      break;
    }
  }
  ASSERT_GT(reject_at, 1);

  // Reject closes the gate...
  EXPECT_EQ(ctl.decide(typical_request(reject_at)), AdmissionDecision::kReject);
  EXPECT_TRUE(ctl.gate_closed());
  // ...and a load just barely back under the threshold is still rejected:
  // reopening needs the extra headroom, not a hair of slack.
  EXPECT_EQ(ctl.decide(typical_request(reject_at - 1)),
            AdmissionDecision::kReject);
  // Well below the threshold the gate reopens.
  EXPECT_NE(ctl.decide(typical_request(1)), AdmissionDecision::kReject);
  EXPECT_FALSE(ctl.gate_closed());
}

TEST(AdmissionController, SheddingRejectsEverything) {
  AdmissionController ctl(7);
  ctl.set_shedding(true);
  EXPECT_EQ(ctl.decide(typical_request(0)), AdmissionDecision::kReject);
  ctl.set_shedding(false);
  EXPECT_EQ(ctl.decide(typical_request(0)), AdmissionDecision::kAdmit);
}

TEST(AdmissionController, RetryBackoffDeterministicCappedAndJittered) {
  AdmissionController a(42);
  AdmissionController b(42);
  AdmissionController other(43);

  double prev = 0;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    const TimeDelta d1 = a.retry_delay(17, attempt);
    const TimeDelta d2 = b.retry_delay(17, attempt);
    // Pure function of (seed, client, attempt).
    EXPECT_EQ(d1, d2);
    // Base * 2^attempt, capped, plus bounded positive jitter.
    const double base =
        std::min(kRetryBase.sec() * static_cast<double>(1 << attempt),
                 kRetryCap.sec());
    EXPECT_GE(d1.sec(), base);
    EXPECT_LE(d1.sec(), base * (1.0 + kRetryJitterFrac));
    EXPECT_GT(d1.sec(), prev * 0.99);  // non-collapsing schedule
    prev = d1.sec();
  }
  // Different seeds (and different clients) jitter differently.
  EXPECT_NE(a.retry_delay(17, 0), other.retry_delay(17, 0));
  EXPECT_NE(a.retry_delay(17, 0), a.retry_delay(18, 0));
  // Attempts beyond the budget are refused.
  EXPECT_TRUE(a.retry_allowed(0));
  EXPECT_FALSE(a.retry_allowed(kMaxRetries));
}

TEST(LoadShedLadder, EscalatesOnRebufferAndHonorsDwell) {
  LoadShedLadder ladder;
  TimePoint t = TimePoint::from_sec(1);

  EXPECT_EQ(ladder.update(t, 0.0, 0.9), ShedLevel::kFreezeAdds);
  // Dwell: an immediately following hot sample cannot climb again.
  t = t + TimeDelta::seconds(1);
  EXPECT_EQ(ladder.update(t, 0.0, 0.9), ShedLevel::kFreezeAdds);
  // After the dwell it takes the next rung, one at a time.
  t = t + kDwell;
  EXPECT_EQ(ladder.update(t, 0.0, 0.9), ShedLevel::kBaseOnly);
  t = t + kDwell;
  EXPECT_EQ(ladder.update(t, 0.0, 0.9), ShedLevel::kShedSessions);
  t = t + kDwell;
  EXPECT_EQ(ladder.update(t, 0.0, 0.9), ShedLevel::kShedSessions);
  EXPECT_EQ(ladder.escalations(), 3);
}

TEST(LoadShedLadder, QueueAloneOnlyFreezesAdds) {
  LoadShedLadder ladder;
  TimePoint t = TimePoint::from_sec(1);
  // A standing queue with zero rebuffering is normal AIMD congestion, not
  // user-visible overload: the ladder grips the gentle rung and stops.
  EXPECT_EQ(ladder.update(t, 0.99, 0.0), ShedLevel::kFreezeAdds);
  for (int i = 0; i < 10; ++i) {
    t = t + kDwell;
    EXPECT_EQ(ladder.update(t, 0.99, 0.0), ShedLevel::kFreezeAdds);
  }
}

TEST(LoadShedLadder, CleanRecoveryIsNotAnOscillation) {
  LoadShedLadder ladder;
  TimePoint t = TimePoint::from_sec(1);
  ladder.update(t, 0.0, 0.9);  // up
  // Release requires both signals low AND the longer release dwell.
  t = t + kDwell;
  EXPECT_EQ(ladder.update(t, 0.0, 0.0), ShedLevel::kFreezeAdds);
  t = t + kDwellDown;
  EXPECT_EQ(ladder.update(t, 0.0, 0.0), ShedLevel::kNormal);
  EXPECT_EQ(ladder.oscillation_events(), 0);
}

TEST(LoadShedLadder, RegrippingRightAfterReleaseCounts) {
  LoadShedLadder ladder;
  TimePoint t = TimePoint::from_sec(1);
  ladder.update(t, 0.0, 0.9);  // up
  t = t + kDwellDown + TimeDelta::seconds(1);
  ladder.update(t, 0.0, 0.0);  // down
  // Hot again within the flap window of the release: oscillation.
  t = t + kDwell;
  EXPECT_EQ(ladder.update(t, 0.0, 0.9), ShedLevel::kFreezeAdds);
  EXPECT_EQ(ladder.oscillation_events(), 1);
}

}  // namespace
}  // namespace qa::app
