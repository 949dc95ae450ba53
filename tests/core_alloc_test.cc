// Allocation counters for the QA decision path and the run series.
//
// This binary replaces the global operator new/delete with counting
// versions. Between layer changes the adapter's per-packet work — the
// filling walk, the add gate, drain re-planning every drain_period and the
// backoff handling — must run without touching the heap: all storage it
// needs is sized when the session starts or when a layer is added. A run's
// sampled series must cost one clock entry plus one double per column per
// sample, each buffer allocated once at the run's sample count, and a run
// asked for no series must allocate none.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "app/experiment.h"
#include "core/quality_adapter.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/rng.h"

namespace {

bool g_counting = false;
int64_t g_allocations = 0;

// Blocks of at least g_watch_bytes allocated while counting, so a test can
// tell which allocation backs a buffer and how large it was.
struct Block {
  const void* p = nullptr;
  std::size_t bytes = 0;
};
std::array<Block, 1024> g_blocks;
std::size_t g_block_count = 0;
std::size_t g_watch_bytes = SIZE_MAX;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting && n >= g_watch_bytes && g_block_count < g_blocks.size()) {
    g_blocks[g_block_count++] = {p, n};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qa::core {
namespace {

// One on_send_opportunity call: the allocations made since the previous
// call (including any on_backoff in between) and the running count of
// layer changes after it.
struct Call {
  int64_t allocations = 0;
  size_t layer_changes = 0;
  bool draining = false;  // rate below consumption: a drain plan was walked
  int backoffs = 0;       // backoffs delivered just before this call
};

TEST(SteadyStateAllocations, NoHeapAllocationBetweenLayerChanges) {
  constexpr double kDuration = 600;
  constexpr double kStepSec = 0.002;
  constexpr double kPacketBytes = 250;
  Rng rng(42);
  const AimdTrajectory traj = tracedrive::random_backoff_trajectory(
      30'000, 8'000, 70'000, kDuration, 8.0, rng);
  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 8;
  cfg.kmax = 3;

  QualityAdapter adapter(cfg);
  adapter.begin(TimePoint::origin());
  const auto layer_changes = [&adapter] {
    return adapter.metrics().adds().size() + adapter.metrics().drops().size();
  };

  // The same replay loop as tracedrive::run_trace, with the counter live
  // only inside adapter calls.
  std::vector<Call> calls;
  calls.reserve(200'000);
  const auto& backoffs = traj.backoff_times();
  size_t backoff_idx = 0;
  double credit = 0;
  int64_t since_last_call = 0, total = 0;
  int pending_backoffs = 0;
  const auto steps = static_cast<int64_t>(kDuration / kStepSec);
  for (int64_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * kStepSec;
    while (backoff_idx < backoffs.size() && backoffs[backoff_idx] <= t) {
      const double tb = backoffs[backoff_idx++];
      g_allocations = 0;
      g_counting = true;
      adapter.on_backoff(TimePoint::from_sec(tb), traj.rate_at(tb),
                         traj.slope());
      g_counting = false;
      since_last_call += g_allocations;
      ++pending_backoffs;
    }
    const double rate = traj.rate_at(t);
    credit += rate * kStepSec;
    while (credit >= kPacketBytes) {
      credit -= kPacketBytes;
      g_allocations = 0;
      g_counting = true;
      adapter.on_send_opportunity(TimePoint::from_sec(t), rate, traj.slope(),
                                  kPacketBytes);
      g_counting = false;
      Call c;
      c.allocations = since_last_call + g_allocations;
      c.layer_changes = layer_changes();
      c.draining = rate < adapter.active_layers() * cfg.consumption_rate;
      c.backoffs = pending_backoffs;
      calls.push_back(c);
      total += c.allocations;
      since_last_call = 0;
      pending_backoffs = 0;
    }
  }
  // The hook is live: layer changes record events, which allocate.
  ASSERT_GT(total, 0);

  // The longest run of consecutive calls with no add or drop in or before
  // any of them (a change made by the call just before the run is outside).
  size_t best_begin = 0, best_len = 0;
  for (size_t begin = 1; begin < calls.size();) {
    size_t end = begin;
    while (end < calls.size() &&
           calls[end].layer_changes == calls[begin - 1].layer_changes) {
      ++end;
    }
    if (end - begin > best_len) {
      best_begin = begin;
      best_len = end - begin;
    }
    begin = end + 1;
  }
  ASSERT_GE(best_len, 10'000u);

  int64_t allocations = 0, draining = 0, backoffs_in_window = 0;
  for (size_t i = best_begin; i < best_begin + best_len; ++i) {
    allocations += calls[i].allocations;
    draining += calls[i].draining ? 1 : 0;
    backoffs_in_window += calls[i].backoffs;
  }
  // The window covers backoffs and draining phases, so drain plans were
  // rebuilt (with their state sequence) inside it, not only filling picks.
  EXPECT_GT(backoffs_in_window, 0);
  EXPECT_GT(draining, 0);
  EXPECT_EQ(allocations, 0) << "over " << best_len << " calls from call "
                            << best_begin;
}

// Records the large blocks `run` allocates, watching blocks of at least
// `watch_bytes`, and counts all of its allocations in g_allocations.
template <typename Run>
auto record_blocks(std::size_t watch_bytes, Run run) {
  g_block_count = 0;
  g_allocations = 0;
  g_watch_bytes = watch_bytes;
  g_counting = true;
  auto result = run();
  g_counting = false;
  g_watch_bytes = SIZE_MAX;
  return result;
}

// The recorded block that `p` points to the start of; 0 bytes if none.
std::size_t recorded_bytes(const void* p) {
  for (std::size_t i = 0; i < g_block_count; ++i) {
    if (g_blocks[i].p == p) return g_blocks[i].bytes;
  }
  return 0;
}

// The allocations a table of `n_layers` layers makes: its clock, its four
// scalar columns, and one index vector plus `n_layers` columns for each of
// the three per-layer quantities.
constexpr int64_t table_allocations(int64_t n_layers) {
  return 1 + 4 + 3 * (1 + n_layers);
}

// The run table holds one clock and `columns` value columns, all as long
// as the clock, none with capacity past `reserved` samples; each buffer is
// one block the run allocated at exactly `reserved` entries, so a sample
// costs 8 B for its time plus 8 B per column. Returns the column count.
size_t expect_columnar(const tracedrive::RunSeries& s, size_t reserved) {
  std::vector<const std::vector<double>*> columns = {
      &s.rate, &s.consumption, &s.layers, &s.total_buffer};
  for (const auto* per_layer :
       {&s.layer_buffer, &s.layer_send_rate, &s.layer_drain_rate}) {
    for (const auto& column : *per_layer) columns.push_back(&column);
  }
  EXPECT_LE(s.times.capacity(), reserved);
  std::size_t table_bytes = recorded_bytes(s.times.data());
  for (const auto* column : columns) {
    EXPECT_EQ(column->size(), s.times.size());
    EXPECT_LE(column->capacity(), reserved);
    table_bytes += recorded_bytes(column->data());
  }
  EXPECT_EQ(table_bytes, reserved * (sizeof(TimePoint) +
                                     columns.size() * sizeof(double)));
  return columns.size();
}

TEST(RunSeriesMemory, TraceReplayTableIsSizedOnceAndOptIn) {
  Rng rng(42);
  const AimdTrajectory traj = tracedrive::random_backoff_trajectory(
      30'000, 8'000, 70'000, 600, 8.0, rng);
  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 8;
  cfg.kmax = 3;
  // 600 s at 0.1 s: one sample per period up to and including the end.
  const size_t reserved = 6'001;
  tracedrive::RunSeries series;
  record_blocks(reserved * sizeof(double), [&] {
    return tracedrive::run_trace(traj, cfg, 600, 250, 0.1,
                                 /*keep_packet_log=*/false, &series);
  });
  const int64_t with_table = g_allocations;
  // The last period's sample falls to the end's rounding.
  EXPECT_GE(series.times.size(), 5'999u);
  EXPECT_EQ(expect_columnar(series, reserved), 28u);
  // Nothing else in the replay is that large: the table is all of it.
  EXPECT_EQ(g_block_count, 29u);

  record_blocks(reserved * sizeof(double), [&] {
    return tracedrive::run_trace(traj, cfg, 600, 250, 0.1);
  });
  // Asked for no table, the replay allocates no column...
  EXPECT_EQ(g_block_count, 0u);
  // ...and the table's own buffers were all that recording added: no
  // sample allocates.
  EXPECT_EQ(with_table - g_allocations, table_allocations(8));
}

TEST(RunSeriesMemory, ExperimentTableIsSizedOnceAndOptIn) {
  app::ExperimentParams p = app::ExperimentParams::t1(/*kmax=*/2);
  p.duration_sec = 60;
  // One sample every 0.1 s, at 0.1 s .. 60 s.
  const size_t reserved = 600;
  tracedrive::RunSeries series;
  p.series = &series;
  record_blocks(reserved * sizeof(double),
                [&] { return app::run_experiment(p); });
  const int64_t with_table = g_allocations;
  const size_t with_table_blocks = g_block_count;
  EXPECT_EQ(series.times.size(), reserved);
  EXPECT_EQ(expect_columnar(series, reserved), 28u);

  p.series = nullptr;
  record_blocks(reserved * sizeof(double),
                [&] { return app::run_experiment(p); });
  // Asked for no table, the run allocates none of the table's 29 blocks
  // and no block of a column's size (the large blocks left are the
  // simulator's own, grown by doubling)...
  EXPECT_EQ(with_table_blocks - g_block_count, 29u);
  for (std::size_t i = 0; i < g_block_count; ++i) {
    EXPECT_NE(g_blocks[i].bytes, reserved * sizeof(double));
  }
  // ...and recording added only the table and the tick's two per-layer
  // scratch vectors (the send window and the last buffer levels):
  // recording its 600 samples allocates nothing.
  EXPECT_EQ(with_table - g_allocations, table_allocations(8) + 2);
}

}  // namespace
}  // namespace qa::core
