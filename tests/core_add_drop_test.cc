#include "core/add_drop.h"

#include <gtest/gtest.h>

#include "core/state_sequence.h"

namespace qa::core {
namespace {

const AimdModel kModel{10'000.0, 20'000.0};

TEST(ShouldAddLayer, RejectsWhenRateInsufficient) {
  // 2 layers active, adding needs R >= 30 kB/s.
  std::vector<double> huge(2, 1e9);
  AddDropConfig cfg{/*kmax=*/2, /*max_layers=*/5};
  EXPECT_FALSE(should_add_layer(huge, 2, 29'999, kModel, cfg));
  EXPECT_TRUE(should_add_layer(huge, 2, 30'001, kModel, cfg));
}

TEST(ShouldAddLayer, RejectsWhenBufferingTooThin) {
  // R = 50 kB/s, 2 layers: the Kmax=2 clustered state (H = 7.5 kB/s) needs
  // ~1.4 kB buffered; empty buffers must block the add.
  std::vector<double> empty(2, 0.0);
  AddDropConfig cfg{2, 5};
  EXPECT_FALSE(should_add_layer(empty, 2, 50'000, kModel, cfg));
}

TEST(ShouldAddLayer, HighRateStillNeedsProspectiveBuffering) {
  // R = 80 kB/s with 2 layers: judged against the CURRENT configuration a
  // double backoff lands exactly on the consumption line (no requirement),
  // but the gate evaluates the prospective 3-layer set, whose k=2 state
  // needs 2.5 kB on the base layer. Empty buffers must block the add; the
  // base-layer share opens it.
  std::vector<double> empty(2, 0.0);
  AddDropConfig cfg{2, 5};
  EXPECT_FALSE(should_add_layer(empty, 2, 80'000, kModel, cfg));
  std::vector<double> enough = {2'501.0, 0.0};
  EXPECT_TRUE(should_add_layer(enough, 2, 80'000, kModel, cfg));
}

TEST(ShouldAddLayer, AcceptsWhenProspectiveTargetsMet) {
  // The gate evaluates the prospective (na+1)-layer configuration with an
  // empty buffer for the newcomer. Give the existing layers the deepest
  // adjusted targets of that configuration: the add must be allowed.
  const int na = 2;
  const double rate = 50'000;
  AddDropConfig cfg{2, 5};
  const StateSequence seq(rate, na + 1, kModel, cfg.kmax, true);
  std::vector<double> bufs = seq.states().back().adjusted_targets;
  ASSERT_EQ(bufs.size(), 3u);
  EXPECT_NEAR(bufs[2], 0.0, 1e-6) << "newcomer's own share should be nil";
  bufs.resize(2);  // the two existing layers
  EXPECT_TRUE(should_add_layer(bufs, na, rate, kModel, cfg));
}

TEST(ShouldAddLayer, RespectsMaxLayers) {
  std::vector<double> huge(3, 1e9);
  AddDropConfig cfg{2, 3};
  EXPECT_FALSE(should_add_layer(huge, 3, 1e9, kModel, cfg));
}

TEST(ShouldAddLayer, DistributionMattersNotJustTotal) {
  // Pile the full required total onto the BASE layer: base-layer buffering
  // cannot substitute for the enhancement layer's share (§4's key
  // observation is one-directional), so the add must be rejected even
  // though the total amount would suffice.
  const int na = 3;
  const double rate = 50'000;
  AddDropConfig cfg{2, 6};
  const StateSequence seq(rate, na, kModel, cfg.kmax, true);
  double total = 0;
  for (double t : seq.states().back().adjusted_targets) total += t;
  ASSERT_GT(seq.states().back().raw_targets[1], 0.0)
      << "test premise: an enhancement layer needs its own buffering";
  std::vector<double> skewed = {total * 2, 0.0, 0.0};
  EXPECT_FALSE(should_add_layer(skewed, na, rate, kModel, cfg));
}

TEST(LayersToKeep, KeepsWhatTheBufferCanBridge) {
  EXPECT_EQ(layers_to_keep(10'000, 3, 2'500, kModel), 2);
  EXPECT_EQ(layers_to_keep(10'000, 3, 1'000'000, kModel), 3);
  EXPECT_EQ(layers_to_keep(0, 5, 0, kModel), 1);
}

TEST(DrainingBuffersSufficient, TrueWhenNotDraining) {
  EXPECT_TRUE(draining_buffers_sufficient(35'000, 3, 0.0, kModel));
}

TEST(DrainingBuffersSufficient, ThresholdAtTriangleArea) {
  // rate 20k, consumption 30k: required = 10k^2 / 40k = 2500 bytes.
  EXPECT_FALSE(draining_buffers_sufficient(20'000, 3, 2'499, kModel));
  EXPECT_TRUE(draining_buffers_sufficient(20'000, 3, 2'500, kModel));
}

}  // namespace
}  // namespace qa::core
