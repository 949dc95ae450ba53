// Farm-level behavioral tests: same-seed determinism of the full
// 500-arrival churn scenario, the overload admission-on/off contrast
// (admission must strictly reduce the aggregate rebuffer rate without
// hurting fairness or flapping), and registry boundedness (per-session
// metrics fold into shared histograms, so the export size is independent
// of how many sessions churned through).
#include "app/farm.h"

#include <gtest/gtest.h>

#include "app/admission.h"
#include "sim/topology.h"
#include "util/metrics_registry.h"

namespace qa::app {
namespace {

FarmParams smoke_params(uint64_t seed) {
  FarmParams p;
  p.seed = seed;
  p.slots = 16;
  p.duration = TimeDelta::seconds(60);
  p.bottleneck_bw = Rate::kilobytes_per_sec(100);
  p.stream_layers = 4;
  p.layer_rate = Rate::kilobytes_per_sec(2.5);
  p.packet_size = 500;
  p.arrival_rate_hz = 0.4;
  p.mean_session = TimeDelta::seconds(25);
  return p;
}

// The qa_farm `churn500` preset: ~500 Poisson arrivals plus a flash crowd
// and a mass departure — the determinism acceptance scenario.
FarmParams churn500_params(uint64_t seed) {
  FarmParams p;
  p.seed = seed;
  p.slots = 96;
  p.duration = TimeDelta::seconds(600);
  p.bottleneck_bw = Rate::kilobytes_per_sec(400);
  p.stream_layers = 4;
  p.layer_rate = Rate::kilobytes_per_sec(2.5);
  p.packet_size = 500;
  p.arrival_rate_hz = 0.8;
  p.mean_session = TimeDelta::seconds(45);
  p.flash_crowd_at = TimeDelta::seconds(120);
  p.flash_crowd_arrivals = 40;
  p.mass_departure_at = TimeDelta::seconds(300);
  p.mass_departure_fraction = 0.5;
  return p;
}

// The qa_farm `overload` preset: offered load well beyond what the quality
// model admits.
FarmParams overload_params(uint64_t seed) {
  FarmParams p;
  p.seed = seed;
  p.slots = 24;
  p.duration = TimeDelta::seconds(180);
  p.bottleneck_bw = Rate::kilobytes_per_sec(50);
  p.stream_layers = 4;
  p.layer_rate = Rate::kilobytes_per_sec(2.5);
  p.packet_size = 500;
  p.arrival_rate_hz = 0.5;
  p.mean_session = TimeDelta::seconds(60);
  return p;
}

TEST(Farm, SmokeRunIsSane) {
  const FarmResult r = run_farm(smoke_params(3));
  EXPECT_GT(r.arrivals, 0);
  EXPECT_GT(r.admitted, 0);
  EXPECT_GT(r.total_packets_received, 0);
  EXPECT_GT(r.session_seconds, 0);
  EXPECT_LE(r.admitted + r.admitted_base_only,
            r.arrivals);  // every admit came from an arrival
  EXPECT_GE(r.peak_active, 1);
  EXPECT_FALSE(r.series.empty());
  // A healthy (under-provisioned-in-slots but not overloaded) farm never
  // climbs past freezing adds, and never flaps.
  EXPECT_LE(r.max_shed_level, static_cast<int>(ShedLevel::kFreezeAdds));
  EXPECT_EQ(r.oscillation_events, 0);
}

TEST(Farm, SameSeedChurn500IsDigestIdentical) {
  const FarmResult a = run_farm(churn500_params(1));
  const FarmResult b = run_farm(churn500_params(1));
  // The scenario really is the 500-arrival acceptance run.
  EXPECT_GE(a.arrivals, 500);
  EXPECT_EQ(farm_digest(a), farm_digest(b));
  // Spot-check the ledger too, so a digest bug can't mask divergence.
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.total_packets_received, b.total_packets_received);
  EXPECT_EQ(a.series.size(), b.series.size());
}

TEST(Farm, DifferentSeedsDiverge) {
  const FarmResult a = run_farm(smoke_params(1));
  const FarmResult b = run_farm(smoke_params(2));
  EXPECT_NE(farm_digest(a), farm_digest(b));
}

TEST(Farm, OverloadAdmissionBeatsNoAdmission) {
  FarmParams on = overload_params(1);
  FarmParams off = overload_params(1);
  off.admission_enabled = false;

  const FarmResult r_on = run_farm(on);
  const FarmResult r_off = run_farm(off);

  // The controller actually gated something.
  EXPECT_GT(r_on.rejected, 0);
  EXPECT_LT(r_on.peak_active, r_off.peak_active);

  // Acceptance: admission-on yields a strictly lower aggregate rebuffer
  // rate and no worse fairness, with zero admit/evict oscillation.
  EXPECT_LT(r_on.aggregate_rebuffer_rate, r_off.aggregate_rebuffer_rate);
  EXPECT_GE(r_on.mean_jain, r_off.mean_jain);
  EXPECT_EQ(r_on.oscillation_events, 0);
  EXPECT_EQ(r_on.shed, 0);  // graceful degradation never reached eviction
}

TEST(Farm, RegistryExportSizeIsIndependentOfChurnVolume) {
  MetricsRegistry small_reg;
  FarmParams small = smoke_params(5);
  small.duration = TimeDelta::seconds(30);
  small.registry = &small_reg;
  const FarmResult r_small = run_farm(small);

  MetricsRegistry big_reg;
  FarmParams big = smoke_params(5);
  big.duration = TimeDelta::seconds(120);
  big.arrival_rate_hz = 1.0;
  // Fast churn: many more distinct sessions.
  big.mean_session = TimeDelta::seconds(10);
  big.registry = &big_reg;
  const FarmResult r_big = run_farm(big);

  EXPECT_GT(r_big.departures, 2 * r_small.departures);
  // Per-session metrics fold into shared farm histograms: the number of
  // exported instruments must not grow with the number of sessions.
  EXPECT_EQ(big_reg.size(), small_reg.size());
  EXPECT_GT(big_reg.size(), 0u);
}

// The farm.tail.* rows are exact percentiles over every session that
// joined: each admitted session retires exactly once (at departure, shed
// or run end), and the per-class counts partition the farm-wide count.
TEST(Farm, TailRowsCoverEveryAdmittedSession) {
  MetricsRegistry reg;
  FarmParams p = FarmParams::preset("smoke");
  p.registry = &reg;
  run_farm(p);

  const auto gauge = [&reg](const std::string& name) {
    return reg.gauge(name).value();
  };
  const double admitted =
      static_cast<double>(reg.counter("farm.admitted").value() +
                          reg.counter("farm.admitted_base_only").value());
  ASSERT_GT(admitted, 0);
  for (const std::string base :
       {"farm.tail.rebuffer_s", "farm.tail.goodput_Bps"}) {
    const double count = gauge(base + ".count");
    double class_sum = 0;
    const size_t classes = sim::kAccessClasses.size();
    for (size_t c = 0; c < classes; ++c) {
      class_sum += gauge(base + ".class" + std::to_string(c) + ".count");
    }
    EXPECT_EQ(class_sum, count) << base;
    EXPECT_LE(gauge(base + ".p50"), gauge(base + ".p95")) << base;
    EXPECT_LE(gauge(base + ".p95"), gauge(base + ".p99")) << base;
  }
  EXPECT_EQ(gauge("farm.tail.rebuffer_s.count"), admitted);
}

TEST(Farm, SeriesCsvRoundTrips) {
  const FarmResult r = run_farm(smoke_params(3));
  const std::string path = "farm_test_series.csv";
  write_farm_series_csv(r, path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char header[256] = {0};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  EXPECT_NE(std::string(header).find("t_sec"), std::string::npos);
  EXPECT_NE(std::string(header).find("shed_level"), std::string::npos);
  int lines = 0;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) ++lines;
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(static_cast<size_t>(lines), r.series.size());
}

}  // namespace
}  // namespace qa::app
