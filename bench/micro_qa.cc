// Micro-benchmarks (google-benchmark) for the hot paths: the closed-form
// buffer math, the per-packet filling decision, the periodic drain plan,
// the state-sequence construction, the trajectory lookup, trace-driven
// sessions, and the raw simulator event loop.
// These quantify that the per-packet QA decision is cheap enough for a
// server handling many thousands of packets per second per stream.
#include <benchmark/benchmark.h>

#include "core/buffer_math.h"
#include "core/draining_policy.h"
#include "core/filling_policy.h"
#include "core/quality_adapter.h"
#include "core/state_sequence.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/event.h"
#include "util/rng.h"

namespace qa::core {
namespace {

const AimdModel kModel{10'000.0, 20'000.0};

void BM_TotalBufRequired(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        total_buf_required(Scenario::kSpread, k, 90'000, 5, kModel));
  }
}
BENCHMARK(BM_TotalBufRequired)->Arg(1)->Arg(4)->Arg(8);

void BM_LayerBufRequired(benchmark::State& state) {
  for (auto _ : state) {
    for (int layer = 0; layer < 5; ++layer) {
      benchmark::DoNotOptimize(
          layer_buf_required(Scenario::kSpread, 3, layer, 90'000, 5, kModel));
    }
  }
}
BENCHMARK(BM_LayerBufRequired);

void BM_PickFillLayer(benchmark::State& state) {
  const int na = static_cast<int>(state.range(0));
  std::vector<double> bufs(static_cast<size_t>(na));
  for (int i = 0; i < na; ++i) bufs[static_cast<size_t>(i)] = 1000.0 * i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pick_fill_layer(bufs, na, 12'000.0 * na, kModel, 4));
  }
}
BENCHMARK(BM_PickFillLayer)->Arg(2)->Arg(5)->Arg(8);

void BM_StateSequenceBuild(benchmark::State& state) {
  const int kmax = static_cast<int>(state.range(0));
  for (auto _ : state) {
    StateSequence seq(90'000, 5, kModel, kmax);
    benchmark::DoNotOptimize(seq.states().size());
  }
}
BENCHMARK(BM_StateSequenceBuild)->Arg(2)->Arg(5)->Arg(8);

void BM_DrainPlan(benchmark::State& state) {
  std::vector<double> bufs = {9'000, 4'000, 1'500, 500, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan_drain_period(bufs, 5, 30'000, 60'000, kModel, 4, 0.25));
  }
}
BENCHMARK(BM_DrainPlan);

void BM_AdapterSendOpportunity(benchmark::State& state) {
  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 8;
  cfg.kmax = static_cast<int>(state.range(0));
  cfg.playout_delay = TimeDelta::zero();
  QualityAdapter adapter(cfg);
  adapter.begin(TimePoint::origin());
  double t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adapter.on_send_opportunity(
        TimePoint::from_sec(t), 45'000, 20'000, 1000));
    t += 1000.0 / 45'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdapterSendOpportunity)->Arg(2)->Arg(5);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(TimePoint::from_ns(i * 997 % 10'000),
                        [&fired] { ++fired; });
    }
    sched.run_until(TimePoint::from_sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

// The zero-cost-when-disabled contract: an Event with no subscribers must
// stay a single empty() branch on the per-packet path.
void BM_EventEmitNoSubscribers(benchmark::State& state) {
  Event<int64_t> ev;
  int64_t i = 0;
  for (auto _ : state) {
    ev.emit(i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventEmitNoSubscribers);

void BM_EventEmitOneSubscriber(benchmark::State& state) {
  Event<int64_t> ev;
  int64_t sum = 0;
  ev.subscribe([&sum](int64_t v) { sum += v; });
  int64_t i = 0;
  for (auto _ : state) {
    ev.emit(i++);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventEmitOneSubscriber);

// Same event mill as BM_SchedulerThroughput but with the profiler attached:
// the delta between the two is the cost of timing every dispatch.
void BM_SchedulerThroughputProfiled(benchmark::State& state) {
  sim::SchedulerProfiler prof;
  for (auto _ : state) {
    sim::Scheduler sched;
    sched.set_profiler(&prof);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(TimePoint::from_ns(i * 997 % 10'000),
                        [&fired] { ++fired; },
                        sim::EventCategory::kTransport);
    }
    sched.run_until(TimePoint::from_sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["dispatches"] = static_cast<double>(prof.total_dispatches());
  state.counters["wall_ms"] =
      static_cast<double>(prof.total_wall_ns()) * 1e-6;
}
BENCHMARK(BM_SchedulerThroughputProfiled);

void BM_TraceDrivenSecond(benchmark::State& state) {
  // Cost of one simulated second of trace-driven quality adaptation.
  const auto traj =
      AimdTrajectory::sawtooth(30'000, 20'000, 50'000, 1.0);
  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 6;
  cfg.kmax = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracedrive::run_trace(traj, cfg, 1.0));
  }
}
BENCHMARK(BM_TraceDrivenSecond);

void BM_TraceDriven600s(benchmark::State& state) {
  // A whole 600 s session with random backoffs (186 of them, reported as
  // the `backoffs` counter): long enough that a per-step trajectory lookup
  // linear in the backoffs passed so far would dominate the session.
  Rng rng(1);
  const auto traj = tracedrive::random_backoff_trajectory(
      20'000, 8'000, 70'000, 600.0, 5.0, rng);
  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 8;
  cfg.kmax = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracedrive::run_trace(traj, cfg, 600.0));
  }
  state.counters["backoffs"] =
      static_cast<double>(traj.backoff_times().size());
}
BENCHMARK(BM_TraceDriven600s)->Unit(benchmark::kMillisecond);

void BM_RateAt(benchmark::State& state) {
  // Trajectory lookup cost against the number of backoffs B: the queries
  // sweep the whole trajectory, so late times pass all B backoffs.
  const auto n_backoffs = static_cast<int>(state.range(0));
  AimdTrajectory traj(20'000, 8'000);
  traj.set_rate_cap(70'000);
  for (int i = 1; i <= n_backoffs; ++i) traj.add_backoff(2.0 * i);
  const double span = 2.0 * (n_backoffs + 1);
  double t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj.rate_at(t));
    t += 0.37;
    if (t >= span) t -= span;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateAt)->Arg(10)->Arg(100)->Arg(1000);

// Sensitivity: drain planning period length (DESIGN.md §7).
void BM_DrainPlanPeriodSweep(benchmark::State& state) {
  const double period = static_cast<double>(state.range(0)) / 1000.0;
  std::vector<double> bufs = {9'000, 4'000, 1'500, 500, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan_drain_period(bufs, 5, 30'000, 60'000, kModel, 4, period));
  }
}
BENCHMARK(BM_DrainPlanPeriodSweep)->Arg(50)->Arg(250)->Arg(1000);

}  // namespace
}  // namespace qa::core

BENCHMARK_MAIN();
