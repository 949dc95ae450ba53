#include "core/buffer_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "util/rng.h"

namespace qa::core {
namespace {

// Reference parameters used by the hand-computed cases below:
// C = 10 kB/s per layer, S = 20 kB/s per second.
const AimdModel kModel{10'000.0, 20'000.0};

TEST(TriangleArea, HandComputed) {
  // H = 5000 B/s, S = 20000 -> 5000^2 / 40000 = 625 bytes.
  EXPECT_DOUBLE_EQ(triangle_area(5'000, 20'000), 625.0);
  EXPECT_DOUBLE_EQ(triangle_area(10'000, 20'000), 2'500.0);
}

TEST(TriangleArea, NonPositiveHeightIsZero) {
  EXPECT_DOUBLE_EQ(triangle_area(0, 20'000), 0.0);
  EXPECT_DOUBLE_EQ(triangle_area(-100, 20'000), 0.0);
}

TEST(BandShare, SingleBandTriangle) {
  // H = 10000 exactly one layer thick: everything in band 0.
  EXPECT_DOUBLE_EQ(band_share(10'000, 0, 10'000, 20'000), 2'500.0);
  EXPECT_DOUBLE_EQ(band_share(10'000, 1, 10'000, 20'000), 0.0);
}

TEST(BandShare, TwoBandDecomposition) {
  // H = 15000: band 0 = full band (15^2-5^2)/4 = 5000; band 1 = tip 625.
  EXPECT_DOUBLE_EQ(band_share(15'000, 0, 10'000, 20'000), 5'000.0);
  EXPECT_DOUBLE_EQ(band_share(15'000, 1, 10'000, 20'000), 625.0);
  EXPECT_DOUBLE_EQ(band_share(15'000, 2, 10'000, 20'000), 0.0);
}

TEST(BandShare, LowerBandsAreLarger) {
  // The base-of-triangle band is the widest: shares decrease with layer.
  const double h = 47'500;
  double prev = band_share(h, 0, 10'000, 20'000);
  for (int layer = 1; layer * 10'000 < h; ++layer) {
    const double cur = band_share(h, layer, 10'000, 20'000);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(BandShare, SumsToTriangleArea) {
  for (double h : {3'000.0, 10'000.0, 15'000.0, 28'000.0, 50'000.0}) {
    double sum = 0;
    for (int layer = 0; layer < 10; ++layer) {
      sum += band_share(h, layer, 10'000, 20'000);
    }
    EXPECT_NEAR(sum, triangle_area(h, 20'000), 1e-6);
  }
}

TEST(BufferingLayers, CeilOfHeightOverC) {
  EXPECT_EQ(buffering_layers(-5, 10'000), 0);
  EXPECT_EQ(buffering_layers(0, 10'000), 0);
  EXPECT_EQ(buffering_layers(1, 10'000), 1);
  EXPECT_EQ(buffering_layers(10'000, 10'000), 1);
  EXPECT_EQ(buffering_layers(10'001, 10'000), 2);
  EXPECT_EQ(buffering_layers(35'000, 10'000), 4);
}

TEST(MinBackoffsToDrain, HandComputed) {
  // R = 80 kB/s, consumption 30 kB/s: 40 >= 30, 20 < 30 -> k1 = 2.
  EXPECT_EQ(min_backoffs_to_drain(80'000, 3, 10'000), 2);
  // Already below consumption: one backoff puts us deeper below -> k1 = 1.
  EXPECT_EQ(min_backoffs_to_drain(20'000, 3, 10'000), 1);
  // Far above: R = 320 kB/s -> 160, 80, 40, 20 -> k1 = 4.
  EXPECT_EQ(min_backoffs_to_drain(320'000, 3, 10'000), 4);
}

TEST(DeficitHeight, Scenario1) {
  // k backoffs at once: H = n_a*C - R/2^k.
  EXPECT_DOUBLE_EQ(
      deficit_height(Scenario::kClustered, 1, 50'000, 3, kModel), 5'000.0);
  EXPECT_DOUBLE_EQ(
      deficit_height(Scenario::kClustered, 2, 80'000, 3, kModel), 10'000.0);
  EXPECT_DOUBLE_EQ(deficit_height(Scenario::kClustered, 0, 50'000, 3, kModel),
                   0.0);
}

TEST(DeficitHeight, Scenario1NegativeWhenRateStillCovers) {
  // One backoff from 80 leaves 40 >= 30: negative height (no draining).
  EXPECT_LT(deficit_height(Scenario::kClustered, 1, 80'000, 3, kModel), 0.0);
}

TEST(DeficitHeight, Scenario2UsesFirstTriangle) {
  // R = 80, k1 = 2: first-triangle height 30 - 20 = 10 kB/s for any k >= 2.
  EXPECT_DOUBLE_EQ(deficit_height(Scenario::kSpread, 2, 80'000, 3, kModel),
                   10'000.0);
  EXPECT_DOUBLE_EQ(deficit_height(Scenario::kSpread, 5, 80'000, 3, kModel),
                   10'000.0);
  // k below k1: no draining phase at all.
  EXPECT_DOUBLE_EQ(deficit_height(Scenario::kSpread, 1, 80'000, 3, kModel),
                   0.0);
}

TEST(TotalBufRequired, Scenario1HandComputed) {
  EXPECT_DOUBLE_EQ(
      total_buf_required(Scenario::kClustered, 1, 50'000, 3, kModel), 625.0);
  EXPECT_DOUBLE_EQ(
      total_buf_required(Scenario::kClustered, 2, 80'000, 3, kModel),
      2'500.0);
  // Not enough backoffs to matter.
  EXPECT_DOUBLE_EQ(
      total_buf_required(Scenario::kClustered, 1, 80'000, 3, kModel), 0.0);
}

TEST(TotalBufRequired, Scenario2HandComputed) {
  // R = 80, k = 3: first triangle 2500 + one spread triangle of height
  // 15000 -> 5625. Total 8125.
  EXPECT_DOUBLE_EQ(total_buf_required(Scenario::kSpread, 3, 80'000, 3, kModel),
                   8'125.0);
  // k = k1: identical to scenario 1.
  EXPECT_DOUBLE_EQ(total_buf_required(Scenario::kSpread, 2, 80'000, 3, kModel),
                   total_buf_required(Scenario::kClustered, 2, 80'000, 3,
                                      kModel));
}

TEST(TotalBufRequired, MonotoneInK) {
  for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
    double prev = -1;
    for (int k = 1; k <= 8; ++k) {
      const double t = total_buf_required(s, k, 90'000, 4, kModel);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
}

TEST(LayerBufRequired, Scenario2HandComputed) {
  // From the derivation: layer 0 = 2500 + 5000, layer 1 = 625.
  EXPECT_DOUBLE_EQ(
      layer_buf_required(Scenario::kSpread, 3, 0, 80'000, 3, kModel),
      7'500.0);
  EXPECT_DOUBLE_EQ(
      layer_buf_required(Scenario::kSpread, 3, 1, 80'000, 3, kModel), 625.0);
  EXPECT_DOUBLE_EQ(
      layer_buf_required(Scenario::kSpread, 3, 2, 80'000, 3, kModel), 0.0);
}

TEST(LayersToKeep, HandComputed) {
  // reach = 10000 + sqrt(2*20000*2500) = 20000: keep exactly 2 layers.
  EXPECT_EQ(layers_to_keep(10'000, 3, 2'500, kModel), 2);
  // No buffering at all: keep what the rate alone can feed.
  EXPECT_EQ(layers_to_keep(10'000, 3, 0, kModel), 1);
  EXPECT_EQ(layers_to_keep(25'000, 3, 0, kModel), 2);
  // Plenty of buffering: keep everything.
  EXPECT_EQ(layers_to_keep(10'000, 3, 1'000'000, kModel), 3);
}

TEST(LayersToKeep, NeverDropsBaseLayer) {
  EXPECT_EQ(layers_to_keep(0.0, 5, 0.0, kModel), 1);
}

TEST(BasicAddConditions, RateGate) {
  // 3 active layers: adding needs R >= 40 kB/s.
  EXPECT_FALSE(basic_add_conditions(39'999, 3, 1e9, kModel));
  // Rate fine and buffering huge: add.
  EXPECT_TRUE(basic_add_conditions(40'000, 3, 1e9, kModel));
}

TEST(BasicAddConditions, BufferGate) {
  // R = 40 kB/s, new consumption 40: required = (40-20)^2/2S = 10000.
  EXPECT_FALSE(basic_add_conditions(40'000, 3, 9'999, kModel));
  EXPECT_TRUE(basic_add_conditions(40'000, 3, 10'000, kModel));
}

// ---------------------------------------------------------------------------
// Property sweeps over randomized parameters.

struct MathSweepParam {
  uint64_t seed;
};

class BufferMathProperty : public ::testing::TestWithParam<int> {};

TEST_P(BufferMathProperty, LayerSharesSumToTotal) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const double c = rng.uniform(1'000, 50'000);
    const AimdModel m{c, rng.uniform(1'000, 500'000)};
    const int na = 1 + static_cast<int>(rng.next_below(8));
    const double rate = rng.uniform(0.2, 3.0) * c * na;
    const int k = 1 + static_cast<int>(rng.next_below(6));
    for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
      double sum = 0;
      for (int layer = 0; layer < na; ++layer) {
        sum += layer_buf_required(s, k, layer, rate, na, m);
      }
      const double total = total_buf_required(s, k, rate, na, m);
      EXPECT_NEAR(sum, total, 1e-6 * std::max(1.0, total))
          << "scenario=" << static_cast<int>(s) << " k=" << k << " na=" << na
          << " rate=" << rate << " C=" << c;
    }
  }
}

TEST_P(BufferMathProperty, SharesAreNonNegativeAndLayerMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    const double c = rng.uniform(1'000, 50'000);
    const AimdModel m{c, rng.uniform(1'000, 500'000)};
    const int na = 1 + static_cast<int>(rng.next_below(8));
    const double rate = rng.uniform(0.2, 3.0) * c * na;
    const int k = 1 + static_cast<int>(rng.next_below(6));
    for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
      double prev = std::numeric_limits<double>::infinity();
      for (int layer = 0; layer < na; ++layer) {
        const double share = layer_buf_required(s, k, layer, rate, na, m);
        EXPECT_GE(share, 0.0);
        EXPECT_LE(share, prev + 1e-9) << "higher layer got more buffer";
        prev = share;
      }
    }
  }
}

TEST_P(BufferMathProperty, ClusteredNeedsNoLessThanSpreadFirstTriangle) {
  // For equal k, clustered backoffs produce the deeper rate dip, so the
  // scenario-1 FIRST-triangle area is >= scenario-2's first triangle.
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  for (int trial = 0; trial < 200; ++trial) {
    const double c = rng.uniform(1'000, 50'000);
    const AimdModel m{c, rng.uniform(1'000, 500'000)};
    const int na = 1 + static_cast<int>(rng.next_below(8));
    const double rate = rng.uniform(1.0, 3.0) * c * na;
    const int k = 1 + static_cast<int>(rng.next_below(6));
    // Invariant: the clustered dip at k is at least as deep as the spread
    // scenario's first-triangle dip whenever the latter exists.
    const double h1 = deficit_height(Scenario::kClustered, k, rate, na, m);
    const double h2 = deficit_height(Scenario::kSpread, k, rate, na, m);
    if (h2 > 0) {
      EXPECT_GE(h1 + 1e-9, h2);
    }
  }
}

TEST_P(BufferMathProperty, LayersToKeepKeepsRecoverableSet) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  for (int trial = 0; trial < 200; ++trial) {
    const double c = rng.uniform(1'000, 50'000);
    const AimdModel m{c, rng.uniform(1'000, 500'000)};
    const int na = 1 + static_cast<int>(rng.next_below(8));
    const double rate = rng.uniform(0.0, 1.5) * c * na;
    const double buf = rng.uniform(0, 50'000);
    const int keep = layers_to_keep(rate, na, buf, m);
    ASSERT_GE(keep, 1);
    ASSERT_LE(keep, na);
    // The kept set must satisfy the recovery inequality...
    const double reach = rate + std::sqrt(2 * m.slope * buf);
    if (keep > 1) {
      EXPECT_LE(keep * c, reach + 1e-6);
    }
    // ...and keeping one more must violate it (when a drop happened).
    if (keep < na) {
      EXPECT_GT((keep + 1) * c, reach - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferMathProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- TargetTable vs the from-scratch formulas. -------------------------------

// The §4.1 target formulas as they were evaluated before the per-decision
// table existed: every call re-derives the consumption, k1 and the deficit
// height. The table must reproduce them bit for bit.
namespace reference {

double deficit_height(Scenario scenario, int k, double rate,
                      int active_layers, const AimdModel& model) {
  if (k == 0) return 0;
  const double consumption =
      static_cast<double>(active_layers) * model.consumption_rate;
  if (scenario == Scenario::kClustered) {
    return consumption - rate / std::exp2(k);
  }
  const int k1 = min_backoffs_to_drain(rate, active_layers,
                                       model.consumption_rate);
  if (k < k1) return 0;
  return consumption - rate / std::exp2(k1);
}

double total_buf_required(Scenario scenario, int k, double rate,
                          int active_layers, const AimdModel& model) {
  if (k <= 0) return 0;
  const double consumption =
      static_cast<double>(active_layers) * model.consumption_rate;
  const double first = triangle_area(
      reference::deficit_height(scenario, k, rate, active_layers, model),
      model.slope);
  if (scenario == Scenario::kClustered) return first;
  const int k1 =
      min_backoffs_to_drain(rate, active_layers, model.consumption_rate);
  if (k < k1) return 0;
  const double spread = triangle_area(consumption / 2.0, model.slope);
  return first + static_cast<double>(k - k1) * spread;
}

double layer_buf_required(Scenario scenario, int k, int layer, double rate,
                          int active_layers, const AimdModel& model) {
  if (k <= 0) return 0;
  const double consumption =
      static_cast<double>(active_layers) * model.consumption_rate;
  const double h =
      reference::deficit_height(scenario, k, rate, active_layers, model);
  const double first =
      band_share(h, layer, model.consumption_rate, model.slope);
  if (scenario == Scenario::kClustered) return first;
  const int k1 =
      min_backoffs_to_drain(rate, active_layers, model.consumption_rate);
  if (k < k1) return 0;
  const double spread = band_share(consumption / 2.0, layer,
                                   model.consumption_rate, model.slope);
  return first + static_cast<double>(k - k1) * spread;
}

}  // namespace reference

TEST(TargetTable, BitIdenticalToFromScratchFormulas) {
  // Rates as multiples of n_a*C: below consumption (k1 = 1) up to deep
  // sawtooth peaks (k1 = 6), plus off-grid values.
  const double kRateFactors[] = {0.3, 0.5, 0.97, 1.0, 1.37, 1.9, 2.0, 2.6,
                                 4.1, 7.9, 13.3, 16.5, 40.0};
  const AimdModel models[] = {kModel, {1'250.0, 1'200.0}, {7'300.0, 55'000.0}};
  int below_k1 = 0, at_k1 = 0, above_band = 0, checked = 0;
  for (const AimdModel& m : models) {
    for (int na = 1; na <= 8; ++na) {
      for (double f : kRateFactors) {
        const double rate = f * na * m.consumption_rate;
        for (int kmax = 1; kmax <= 6; ++kmax) {
          const TargetTable table(rate, na, m);
          ASSERT_EQ(table.k1(),
                    min_backoffs_to_drain(rate, na, m.consumption_rate));
          for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
            for (int k = 0; k <= kmax; ++k) {
              below_k1 += k < table.k1();
              at_k1 += k == table.k1();
              const double h = reference::deficit_height(s, k, rate, na, m);
              EXPECT_EQ(table.height(s, k), h);
              EXPECT_EQ(deficit_height(s, k, rate, na, m), h);
              const double total =
                  reference::total_buf_required(s, k, rate, na, m);
              EXPECT_EQ(table.total(s, k), total);
              EXPECT_EQ(total_buf_required(s, k, rate, na, m), total);
              for (int layer = 0; layer < na; ++layer) {
                const double share =
                    reference::layer_buf_required(s, k, layer, rate, na, m);
                above_band += k > 0 && h > 0 &&
                              layer * m.consumption_rate >= h;
                EXPECT_EQ(table.share(s, k, layer), share)
                    << "na=" << na << " rate=" << rate << " k=" << k
                    << " layer=" << layer;
                EXPECT_EQ(layer_buf_required(s, k, layer, rate, na, m), share);
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  // The grid reaches every branch of the formulas.
  EXPECT_GT(below_k1, 0);
  EXPECT_GT(at_k1, 0);
  EXPECT_GT(above_band, 0);
  EXPECT_GT(checked, 10'000);
}

}  // namespace
}  // namespace qa::core
