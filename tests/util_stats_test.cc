#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace qa {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSet, PercentileInterpolation) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
  EXPECT_DOUBLE_EQ(s.mean(), 25.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 40.0);
}

TEST(SampleSet, PercentileClampsOutOfRange) {
  SampleSet s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(-10), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(200), 2.0);
}

TEST(SampleSet, EmptyIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(TimeSeries, StepValueAt) {
  TimeSeries ts;
  ts.add(TimePoint::from_sec(1.0), 10.0);
  ts.add(TimePoint::from_sec(2.0), 20.0);
  ts.add(TimePoint::from_sec(3.0), 30.0);
  EXPECT_DOUBLE_EQ(ts.step_value_at(TimePoint::from_sec(0.5), -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.step_value_at(TimePoint::from_sec(1.0)), 10.0);
  EXPECT_DOUBLE_EQ(ts.step_value_at(TimePoint::from_sec(1.5)), 10.0);
  EXPECT_DOUBLE_EQ(ts.step_value_at(TimePoint::from_sec(2.0)), 20.0);
  EXPECT_DOUBLE_EQ(ts.step_value_at(TimePoint::from_sec(99.0)), 30.0);
}

TEST(TimeSeries, TimeAverage) {
  TimeSeries ts;
  ts.add(TimePoint::from_sec(0.0), 10.0);
  ts.add(TimePoint::from_sec(1.0), 20.0);
  // [0,1): 10, [1,2): 20 -> average over [0,2) is 15.
  EXPECT_DOUBLE_EQ(
      ts.time_average(TimePoint::from_sec(0), TimePoint::from_sec(2)), 15.0);
  // Partial window [0.5, 1.5): half at 10, half at 20.
  EXPECT_DOUBLE_EQ(ts.time_average(TimePoint::from_sec(0.5),
                                   TimePoint::from_sec(1.5)),
                   15.0);
}

TEST(TimeSeries, TimeAverageDegenerate) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(
      ts.time_average(TimePoint::from_sec(0), TimePoint::from_sec(1)), 0.0);
  ts.add(TimePoint::from_sec(0.0), 5.0);
  EXPECT_DOUBLE_EQ(
      ts.time_average(TimePoint::from_sec(1), TimePoint::from_sec(1)), 0.0);
}

TEST(JainFairness, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({3.0, 3.0, 3.0}), 1.0);
  // One flow hogging everything: index = 1/n.
  EXPECT_DOUBLE_EQ(jain_fairness({10.0, 0.0, 0.0, 0.0}), 0.25);
  // Classic example: {1,2,3} -> 36 / (3*14) = 6/7.
  EXPECT_NEAR(jain_fairness({1.0, 2.0, 3.0}), 6.0 / 7, 1e-12);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 0.0);
}

}  // namespace
}  // namespace qa
