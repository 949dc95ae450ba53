#include "core/analytic_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tracedrive/bandwidth_trace.h"
#include "util/rng.h"

namespace qa::core {
namespace {

// The original O(B) lookup: re-walk every backoff from t = 0. rate_at must
// return exactly (bitwise) what this recurrence returns.
double linear_rate_at(const AimdTrajectory& traj, double t_sec) {
  double rate = traj.initial_rate();
  double t_prev = 0;
  const double cap = traj.rate_cap();
  const auto clamp = [cap](double r) { return cap > 0 ? std::min(r, cap) : r; };
  for (double tb : traj.backoff_times()) {
    if (tb > t_sec) break;
    rate = clamp(rate + traj.slope() * (tb - t_prev));
    rate /= 2.0;
    t_prev = tb;
  }
  return clamp(rate + traj.slope() * (t_sec - t_prev));
}

// Queries t = 0, every backoff instant and one ulp either side of it, a
// grid across the trajectory, and times past the last backoff.
void expect_matches_linear(const AimdTrajectory& traj, double duration) {
  std::vector<double> ts = {0.0, duration, duration * 2};
  for (double tb : traj.backoff_times()) {
    ts.push_back(tb);
    ts.push_back(std::nextafter(tb, -std::numeric_limits<double>::infinity()));
    ts.push_back(std::nextafter(tb, std::numeric_limits<double>::infinity()));
  }
  for (double t = 0; t < duration; t += duration / 97) ts.push_back(t);
  if (!traj.backoff_times().empty()) {
    ts.push_back(traj.backoff_times().back() + 1e-9);
    ts.push_back(traj.backoff_times().back() + 10.0);
  }
  for (double t : ts) {
    EXPECT_EQ(traj.rate_at(t), linear_rate_at(traj, t)) << "t=" << t;
  }
}

TEST(AimdTrajectoryLookup, MatchesLinearRecurrenceOnRandomTrajectories) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto traj = tracedrive::random_backoff_trajectory(
        20'000, 8'000, 70'000, 600.0, 3.0 + static_cast<double>(seed), rng);
    ASSERT_GT(traj.backoff_times().size(), 50u);
    expect_matches_linear(traj, 600.0);
  }
}

TEST(AimdTrajectoryLookup, MatchesLinearRecurrenceOnSawtooth) {
  expect_matches_linear(
      AimdTrajectory::sawtooth(30'000, 20'000, 50'000, 120.0), 120.0);
  expect_matches_linear(
      AimdTrajectory::sawtooth(10'000, 5'000, 20'000, 30.0), 30.0);
}

TEST(AimdTrajectoryLookup, MatchesLinearRecurrenceUncapped) {
  AimdTrajectory traj(15'000, 3'000);
  Rng rng(11);
  double t = 0;
  for (int i = 0; i < 200; ++i) {
    t += rng.exponential(2.0) + 1e-6;
    traj.add_backoff(t);
  }
  expect_matches_linear(traj, t + 5.0);
}

TEST(AimdTrajectoryLookup, CapSetAfterBackoffsRebuildsPostBackoffRates) {
  AimdTrajectory traj(20'000, 10'000);
  Rng rng(5);
  double t = 0;
  for (int i = 0; i < 100; ++i) {
    t += rng.exponential(1.5) + 1e-6;
    traj.add_backoff(t);
  }
  expect_matches_linear(traj, t + 1.0);  // uncapped so far
  traj.set_rate_cap(30'000);
  expect_matches_linear(traj, t + 1.0);
  traj.set_rate_cap(0);  // and back to uncapped
  expect_matches_linear(traj, t + 1.0);
}

TEST(AimdTrajectory, LinearGrowthWithoutBackoffs) {
  AimdTrajectory traj(10'000, 5'000);
  EXPECT_DOUBLE_EQ(traj.rate_at(0), 10'000.0);
  EXPECT_DOUBLE_EQ(traj.rate_at(2), 20'000.0);
}

TEST(AimdTrajectory, BackoffHalvesInstantaneously) {
  AimdTrajectory traj(10'000, 5'000);
  traj.add_backoff(2.0);  // rate reaches 20k, halves to 10k
  EXPECT_DOUBLE_EQ(traj.rate_at(2.0), 10'000.0);
  EXPECT_DOUBLE_EQ(traj.rate_at(3.0), 15'000.0);
}

TEST(AimdTrajectory, MultipleBackoffs) {
  AimdTrajectory traj(40'000, 10'000);
  traj.add_backoff(1.0);  // 50k -> 25k
  traj.add_backoff(1.5);  // 30k -> 15k
  EXPECT_NEAR(traj.rate_at(0.999999999), 50'000.0, 1.0);
  EXPECT_DOUBLE_EQ(traj.rate_at(1.0), 25'000.0);
  EXPECT_DOUBLE_EQ(traj.rate_at(1.5), 15'000.0);
  EXPECT_DOUBLE_EQ(traj.rate_at(2.5), 25'000.0);
}

TEST(AimdTrajectory, CapLimitsGrowth) {
  AimdTrajectory traj(10'000, 10'000);
  traj.set_rate_cap(15'000);
  EXPECT_DOUBLE_EQ(traj.rate_at(10), 15'000.0);
}

TEST(AimdTrajectory, BackoffsBefore) {
  AimdTrajectory traj(10'000, 5'000);
  traj.add_backoff(1.0);
  traj.add_backoff(2.0);
  EXPECT_EQ(traj.backoffs_before(0.5), 0);
  EXPECT_EQ(traj.backoffs_before(1.0), 1);
  EXPECT_EQ(traj.backoffs_before(5.0), 2);
}

TEST(AimdTrajectory, SawtoothPeriodicity) {
  // From cap/2 back to cap takes (cap/2)/slope seconds.
  const auto traj = AimdTrajectory::sawtooth(10'000, 5'000, 20'000, 30.0);
  ASSERT_GT(traj.backoff_times().size(), 3u);
  // First hit: (20000-10000)/5000 = 2 s; then every 2 s.
  EXPECT_DOUBLE_EQ(traj.backoff_times()[0], 2.0);
  EXPECT_DOUBLE_EQ(traj.backoff_times()[1], 4.0);
  EXPECT_DOUBLE_EQ(traj.backoff_times()[2], 6.0);
  // Rate oscillates in [cap/2, cap].
  for (double t = 2.0; t < 29.0; t += 0.25) {
    EXPECT_GE(traj.rate_at(t), 10'000.0 - 1e-6);
    EXPECT_LE(traj.rate_at(t), 20'000.0 + 1e-6);
  }
}

TEST(AimdTrajectory, SawtoothEndsBeforeDuration) {
  const auto traj = AimdTrajectory::sawtooth(10'000, 5'000, 20'000, 5.0);
  for (double tb : traj.backoff_times()) EXPECT_LT(tb, 5.0);
}

TEST(AimdTrajectoryDeathTest, RejectsNonAscendingBackoffs) {
  AimdTrajectory traj(10'000, 5'000);
  traj.add_backoff(2.0);
  EXPECT_DEATH(traj.add_backoff(1.0), "backoffs_");
}

}  // namespace
}  // namespace qa::core
