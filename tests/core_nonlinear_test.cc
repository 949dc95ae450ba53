#include "core/nonlinear.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace qa::core {
namespace {

constexpr double kSlope = 20'000.0;

LayerProfile uniform(int n, double c) {
  return LayerProfile(std::vector<double>(static_cast<size_t>(n), c));
}

TEST(LayerProfile, CumulativeBoundaries) {
  LayerProfile p({20'000, 10'000, 5'000});
  EXPECT_EQ(p.layers(), 3);
  EXPECT_DOUBLE_EQ(p.cumulative(0), 0.0);
  EXPECT_DOUBLE_EQ(p.cumulative(1), 20'000.0);
  EXPECT_DOUBLE_EQ(p.cumulative(2), 30'000.0);
  EXPECT_DOUBLE_EQ(p.total(), 35'000.0);
  EXPECT_DOUBLE_EQ(p.rate(2), 5'000.0);
}

TEST(NlBandShare, ReducesToUniformFormula) {
  const auto p = uniform(4, 10'000);
  for (double h : {3'000.0, 15'000.0, 28'000.0, 50'000.0}) {
    for (int layer = 0; layer < 4; ++layer) {
      EXPECT_NEAR(nl_band_share(h, layer, p, kSlope),
                  band_share(h, layer, 10'000, kSlope), 1e-9)
          << "h=" << h << " layer=" << layer;
    }
  }
}

TEST(NlBandShare, SumsToTriangleArea) {
  LayerProfile p({20'000, 10'000, 5'000, 2'500});
  for (double h : {5'000.0, 18'000.0, 31'000.0, 37'400.0}) {
    double sum = 0;
    for (int layer = 0; layer < p.layers(); ++layer) {
      sum += nl_band_share(h, layer, p, kSlope);
    }
    EXPECT_NEAR(sum, triangle_area(h, kSlope), 1e-6) << "h=" << h;
  }
}

TEST(NlBandShare, ThickBaseTakesProportionallyMore) {
  // A base twice as thick as the enhancement takes more than the uniform
  // base share would at the same height.
  LayerProfile fat({20'000, 10'000});
  const auto thin = uniform(3, 10'000);
  const double h = 25'000;
  EXPECT_GT(nl_band_share(h, 0, fat, kSlope),
            nl_band_share(h, 0, thin, kSlope));
}

TEST(NlTotals, MatchUniformImplementation) {
  const auto p = uniform(3, 10'000);
  const AimdModel m{10'000, kSlope};
  for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
    for (int k = 1; k <= 5; ++k) {
      for (double rate : {35'000.0, 55'000.0, 80'000.0}) {
        EXPECT_NEAR(nl_total_required(s, k, rate, p, kSlope),
                    total_buf_required(s, k, rate, 3, m), 1e-6);
        for (int layer = 0; layer < 3; ++layer) {
          EXPECT_NEAR(nl_layer_required(s, k, layer, rate, p, kSlope),
                      layer_buf_required(s, k, layer, rate, 3, m), 1e-6);
        }
      }
    }
  }
}

TEST(NlTotals, LayerSharesSumToTotal) {
  LayerProfile p({16'000, 8'000, 4'000, 2'000});
  for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
    for (int k = 1; k <= 4; ++k) {
      const double rate = 45'000;
      double sum = 0;
      for (int layer = 0; layer < p.layers(); ++layer) {
        sum += nl_layer_required(s, k, layer, rate, p, kSlope);
      }
      EXPECT_NEAR(sum, nl_total_required(s, k, rate, p, kSlope), 1e-6);
    }
  }
}

TEST(NlDrainFeasible, MatchesUniformOnEqualRates) {
  const auto p = uniform(3, 10'000);
  const AimdModel m{10'000, kSlope};
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const double rate = rng.uniform(0, 35'000);
    std::vector<double> bufs = {rng.uniform(0, 8'000), rng.uniform(0, 8'000),
                                rng.uniform(0, 8'000)};
    EXPECT_EQ(nl_drain_feasible(rate, p, bufs, kSlope),
              drain_feasible(rate, 3, bufs, m))
        << "rate=" << rate;
  }
}

TEST(NlDrainFeasible, ThinEnhancementNeedsLessProtection) {
  // A 2 kB/s enhancement layer only needs a 2 kB/s band covered; the same
  // buffers that fail a uniform 10 kB/s profile can pass here.
  LayerProfile thin({10'000, 2'000});
  const double rate = 6'000;  // deficit 6 kB/s against 12 kB/s consumption
  std::vector<double> bufs = {1'000, 100};
  // Required area = (6k)^2/2S = 900 B; bands 880/20: feasible.
  EXPECT_TRUE(nl_drain_feasible(rate, thin, bufs, kSlope));
  const auto fat = uniform(2, 10'000);
  // Same rate against 20 kB/s consumption: deficit 14 kB/s, area 4.9 kB.
  EXPECT_FALSE(nl_drain_feasible(rate, fat, bufs, kSlope));
}

TEST(NlDrainFeasible, TrivialWhenRateCovers) {
  LayerProfile p({20'000, 5'000});
  std::vector<double> empty = {0, 0};
  EXPECT_TRUE(nl_drain_feasible(25'000, p, empty, kSlope));
  EXPECT_FALSE(nl_drain_feasible(24'000, p, empty, kSlope));
}

class NonlinearProperty : public ::testing::TestWithParam<int> {};

TEST_P(NonlinearProperty, SharesNonNegativeAndConservative) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(6));
    std::vector<double> rates(static_cast<size_t>(n));
    for (double& r : rates) r = rng.uniform(1'000, 30'000);
    LayerProfile p(rates);
    const double slope = rng.uniform(2'000, 300'000);
    const double rate = rng.uniform(0.3, 3.0) * p.total();
    const int k = 1 + static_cast<int>(rng.next_below(5));
    for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
      double sum = 0;
      for (int layer = 0; layer < n; ++layer) {
        const double share = nl_layer_required(s, k, layer, rate, p, slope);
        EXPECT_GE(share, 0.0);
        sum += share;
      }
      const double total = nl_total_required(s, k, rate, p, slope);
      EXPECT_NEAR(sum, total, 1e-6 * std::max(1.0, total));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NonlinearProperty, ::testing::Values(5, 10));

}  // namespace
}  // namespace qa::core
