// Versioned snapshot/delta contract (MetricsSnapshotter): applying a delta
// over an older snapshot must reconstruct the newer one exactly, and idle
// captures must yield empty deltas.
#include "util/metrics_registry.h"

#include <gtest/gtest.h>

#include <limits>
#include <algorithm>
#include <string>
#include <vector>

namespace qa {
namespace {

std::vector<MetricsRegistry::Row> rows_of(const MetricsSnapshot& snap) {
  std::vector<MetricsRegistry::Row> rows;
  for (const auto& e : snap.entries) rows.push_back(e.row);
  return rows;
}

// Overwrites `base` rows by name with `delta` rows (new names append) and
// sorts by name: the oracle that pins changed_since().
std::vector<MetricsRegistry::Row> apply_delta(
    std::vector<MetricsRegistry::Row> base,
    const std::vector<MetricsRegistry::Row>& delta) {
  for (const MetricsRegistry::Row& d : delta) {
    auto it = std::find_if(
        base.begin(), base.end(),
        [&d](const MetricsRegistry::Row& r) { return r.name == d.name; });
    if (it != base.end()) {
      *it = d;
    } else {
      base.push_back(d);
    }
  }
  std::sort(base.begin(), base.end(),
            [](const MetricsRegistry::Row& a, const MetricsRegistry::Row& b) {
              return a.name < b.name;
            });
  return base;
}

void expect_rows_eq(const std::vector<MetricsRegistry::Row>& a,
                    const std::vector<MetricsRegistry::Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(metrics_row_json(a[i]), metrics_row_json(b[i]));
  }
}

TEST(MetricsSnapshot, SeqIsMonotoneAndStartsAtOne) {
  MetricsRegistry reg;
  MetricsSnapshotter snap(&reg);
  EXPECT_EQ(snap.current().seq, 0u);
  EXPECT_EQ(snap.capture().seq, 1u);
  EXPECT_EQ(snap.capture().seq, 2u);
  EXPECT_EQ(snap.capture().seq, 3u);
}

TEST(MetricsSnapshot, DeltaAppliedToOldSnapshotReconstructsNew) {
  MetricsRegistry reg;
  Counter& packets = reg.counter("link.tx_packets");
  Gauge& rate = reg.gauge("rap.rate");
  Histogram& owd = reg.histogram("journey.owd");

  packets.inc(10);
  rate.set(1000);
  owd.observe(0.04);

  MetricsSnapshotter snap(&reg);
  const MetricsSnapshot first = snap.capture();
  const std::vector<MetricsRegistry::Row> base = rows_of(first);

  // Move some instruments, add a brand-new one, leave the rest idle.
  packets.inc(5);
  owd.observe(0.08);
  reg.counter("link.drops").inc();

  const MetricsSnapshot second = snap.capture();
  const auto delta = second.changed_since(first.seq);
  // rap.rate did not move, so the delta must exclude it.
  for (const auto& row : delta) EXPECT_NE(row.name, "rap.rate");
  EXPECT_LT(delta.size(), second.entries.size());

  expect_rows_eq(apply_delta(base, delta), rows_of(second));
}

TEST(MetricsSnapshot, IdleCaptureYieldsEmptyDelta) {
  MetricsRegistry reg;
  reg.counter("a").inc(7);
  reg.gauge("b").set(2.5);
  reg.histogram("h").observe(1.0);

  MetricsSnapshotter snap(&reg);
  const uint64_t seq1 = snap.capture().seq;
  const MetricsSnapshot& second = snap.capture();
  EXPECT_TRUE(second.changed_since(seq1).empty());
}

TEST(MetricsSnapshot, NewRowCountsAsChanged) {
  MetricsRegistry reg;
  reg.counter("old").inc();
  MetricsSnapshotter snap(&reg);
  const uint64_t seq1 = snap.capture().seq;

  reg.counter("new");
  const auto delta = snap.capture().changed_since(seq1);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "new");
}

TEST(MetricsSnapshot, HistogramBucketMovesShowUpInDelta) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  h.observe(1.0);

  MetricsSnapshotter snap(&reg);
  const uint64_t seq1 = snap.capture().seq;

  // Count/sum/percentiles all shift with one more observation.
  h.observe(100.0);
  const auto delta = snap.capture().changed_since(seq1);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "lat");
  EXPECT_EQ(delta[0].count, 2u);
  EXPECT_DOUBLE_EQ(delta[0].max, 100.0);
}

TEST(MetricsSnapshot, NanGaugeIsNotPerpetuallyChanged) {
  MetricsRegistry reg;
  reg.gauge("nan").set(std::numeric_limits<double>::quiet_NaN());
  MetricsSnapshotter snap(&reg);
  const uint64_t seq1 = snap.capture().seq;
  // NaN != NaN under IEEE compare; the snapshotter must still treat an
  // unchanged NaN gauge as idle.
  EXPECT_TRUE(snap.capture().changed_since(seq1).empty());
}

TEST(MetricsSnapshot, ChangedSinceZeroIsTheFullSnapshot) {
  MetricsRegistry reg;
  reg.counter("a");
  reg.gauge("b");
  MetricsSnapshotter snap(&reg);
  snap.capture();
  reg.counter("c");
  const MetricsSnapshot& s = snap.capture();
  EXPECT_EQ(s.changed_since(0).size(), s.entries.size());
}

}  // namespace
}  // namespace qa
