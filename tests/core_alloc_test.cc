// Steady-state allocation counter for the QA decision path.
//
// This binary replaces the global operator new/delete with counting
// versions. Between layer changes the adapter's per-packet work — the
// filling walk, the add gate, drain re-planning every drain_period and the
// backoff handling — must run without touching the heap: all storage it
// needs is sized when the session starts or when a layer is added.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/quality_adapter.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/rng.h"

namespace {

bool g_counting = false;
int64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
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

}  // namespace
}  // namespace qa::core
