// Tests for the adapter features beyond the paper's core pseudocode:
// padding slots, base-layer protection, the selectable drop rule, add
// spacing, the surplus ladder, and the conservative rate/slope smoothing.
#include <gtest/gtest.h>

#include "core/quality_adapter.h"
#include "tracedrive/bandwidth_trace.h"

namespace qa::core {
namespace {

constexpr double kC = 10'000.0;
constexpr double kSlope = 20'000.0;
constexpr double kPkt = 500.0;

AdapterConfig make_config(int kmax = 2, int max_layers = 4) {
  AdapterConfig cfg;
  cfg.consumption_rate = kC;
  cfg.max_layers = max_layers;
  cfg.kmax = kmax;
  cfg.playout_delay = TimeDelta::zero();
  cfg.min_add_spacing = TimeDelta::zero();  // most tests drive time quickly
  return cfg;
}

double drive(QualityAdapter& adapter, double t0, double rate,
             double duration, int* padding = nullptr) {
  const double gap = kPkt / rate;
  double t = t0;
  while (t < t0 + duration) {
    const int layer =
        adapter.on_send_opportunity(TimePoint::from_sec(t), rate, kSlope, kPkt);
    if (padding && layer == QualityAdapter::kPaddingSlot) ++*padding;
    t += gap;
  }
  return t;
}

TEST(AdapterPadding, SlotsAppearOnceTargetsMet) {
  // Max layers reached and all targets met: surplus becomes padding.
  AdapterConfig cfg = make_config(1, /*max_layers=*/2);
  QualityAdapter adapter(cfg);
  adapter.begin(TimePoint::origin());
  int padding = 0;
  drive(adapter, 0.0, 60'000, 10.0, &padding);
  EXPECT_EQ(adapter.active_layers(), 2);
  EXPECT_GT(padding, 100);
  // Padding slots are not credited to the mirror: buffers stay bounded by
  // the target structure instead of absorbing the whole 40 kB/s surplus.
  EXPECT_LT(adapter.receiver().total_buffer(), 30'000.0);
}

TEST(AdapterPadding, SurplusLadderConsumesSlotsInstead) {
  auto total_buffer_with_ladder = [](int depth) {
    AdapterConfig cfg = make_config(1, 2);
    cfg.surplus_ladder_depth = depth;
    QualityAdapter adapter(cfg);
    adapter.begin(TimePoint::origin());
    drive(adapter, 0.0, 60'000, 10.0);
    return adapter.receiver().total_buffer();
  };
  // With the ladder on, surplus slots deepen the buffers (one extra spread
  // triangle of ~2.5 kB per ladder state here) instead of padding.
  const double without = total_buffer_with_ladder(0);
  const double with = total_buffer_with_ladder(8);
  EXPECT_GT(with, without + 10'000.0);
}

TEST(AdapterAddSpacing, LimitsAddRate) {
  AdapterConfig cfg = make_config(1, 8);
  cfg.min_add_spacing = TimeDelta::seconds(2);
  QualityAdapter adapter(cfg);
  adapter.begin(TimePoint::origin());
  drive(adapter, 0.0, 90'000, 5.0);
  // At most one add per 2 s despite abundant rate: <= 1 + floor(5/2) + 1.
  EXPECT_LE(adapter.active_layers(), 4);
  const auto& adds = adapter.metrics().adds();
  for (size_t i = 1; i < adds.size(); ++i) {
    EXPECT_GE((adds[i].time - adds[i - 1].time).sec(), 2.0 - 1e-9);
  }
}

TEST(AdapterBaseProtection, BaseFedFirstWhenNearlyEmpty) {
  QualityAdapter adapter(make_config());
  adapter.begin(TimePoint::origin());
  double t = drive(adapter, 0.0, 45'000, 10.0);
  ASSERT_GE(adapter.active_layers(), 3);
  // Collapse hard; the base layer must keep receiving enough to never
  // accumulate material starvation even while upper layers shed.
  adapter.on_backoff(TimePoint::from_sec(t), 12'000, kSlope);
  double rate = 12'000;
  for (int period = 0; period < 30; ++period) {
    const double gap = kPkt / rate;
    for (double w = 0; w < 0.2; w += gap) {
      adapter.on_send_opportunity(TimePoint::from_sec(t + w), rate, kSlope,
                                  kPkt);
    }
    t += 0.2;
  }
  EXPECT_EQ(adapter.receiver().base_stall_time(), TimeDelta::zero());
}

TEST(AdapterRateSmoothing, PeakDoesNotShrinkTargets) {
  // Hold a low rate, then spike for a moment: the add gate must not fire
  // on the instantaneous peak (the smoothed target rate is still low and
  // buffers were provisioned for the low-rate states only).
  AdapterConfig cfg = make_config(2, 4);
  cfg.min_add_spacing = TimeDelta::zero();
  QualityAdapter adapter(cfg);
  adapter.begin(TimePoint::origin());
  drive(adapter, 0.0, 14'000, 10.0);  // sustains 1 layer, preps the 2nd
  const int before = adapter.active_layers();
  // A single-opportunity spike to 90 kB/s: without smoothing this would
  // satisfy condition 1 for several layers at once.
  adapter.on_send_opportunity(TimePoint::from_sec(10.0), 90'000, kSlope, kPkt);
  EXPECT_LE(adapter.active_layers(), before + 1);
}

TEST(TraceConformLoss, PureSawtoothNeverDrops) {
  // Under the paper's implicit loss model (backoff only at the cap, full
  // recovery in between) the provisioning covers every event: zero drops
  // and zero stalls.
  core::AimdTrajectory traj(4'000, 1'200);
  traj.set_rate_cap(9'000);
  double rate = 4'000, t = 0;
  while (t < 120) {
    const double t_hit = t + (9'000 - rate) / 1'200;
    if (t_hit >= 120) break;
    traj.add_backoff(t_hit);
    rate = 4'500;
    t = t_hit;
  }
  AdapterConfig cfg;
  cfg.consumption_rate = 1'250;
  cfg.max_layers = 8;
  cfg.kmax = 2;
  const auto result = tracedrive::run_trace(traj, cfg, 120.0, 250);
  EXPECT_TRUE(result.metrics.drops().empty());
  EXPECT_EQ(result.base_stall, TimeDelta::zero());
  // Quality settles; only the initial ramp-up adds count as changes.
  EXPECT_LE(result.metrics.quality_changes(), 8);
}

}  // namespace
}  // namespace qa::core
