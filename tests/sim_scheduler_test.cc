#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace qa::sim {
namespace {

TEST(Scheduler, StartsAtOrigin) {
  Scheduler s;
  EXPECT_EQ(s.now(), TimePoint::origin());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::from_sec(3.0), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::from_sec(1.0), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::from_sec(2.0), [&] { order.push_back(2); });
  s.run_until(TimePoint::from_sec(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), TimePoint::from_sec(10));
}

TEST(Scheduler, SimultaneousEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_sec(1.0);
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(t, [&, i] { order.push_back(i); });
  }
  s.run_until(TimePoint::from_sec(2));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesNow) {
  Scheduler s;
  TimePoint fired;
  s.schedule_after(TimeDelta::seconds(1), [&] {
    s.schedule_after(TimeDelta::seconds(2), [&] { fired = s.now(); });
  });
  s.run_until(TimePoint::from_sec(5));
  EXPECT_EQ(fired, TimePoint::from_sec(3));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  bool late = false;
  s.schedule_at(TimePoint::from_sec(2.0), [&] { late = true; });
  s.run_until(TimePoint::from_sec(1.0));
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), TimePoint::from_sec(1.0));
  s.run_until(TimePoint::from_sec(2.0));  // inclusive boundary
  EXPECT_TRUE(late);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(TimePoint::from_sec(1), [&] { ran = true; });
  s.cancel(id);
  s.run_until(TimePoint::from_sec(2));
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler s;
  s.cancel(kInvalidEventId);
  s.cancel(99999);
  bool ran = false;
  s.schedule_at(TimePoint::from_sec(1), [&] { ran = true; });
  s.run_until(TimePoint::from_sec(2));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelledEventAtBoundaryDoesNotLeakLaterEvent) {
  // A cancelled event before `until` must not cause an event after `until`
  // to run early.
  Scheduler s;
  bool late = false;
  const EventId id = s.schedule_at(TimePoint::from_sec(0.5), [] {});
  s.schedule_at(TimePoint::from_sec(2.0), [&] { late = true; });
  s.cancel(id);
  s.run_until(TimePoint::from_sec(1.0));
  EXPECT_FALSE(late);
}

TEST(Scheduler, RunOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(TimePoint::from_sec(1), [&] { ++count; });
  s.schedule_at(TimePoint::from_sec(2), [&] { ++count; });
  EXPECT_TRUE(s.run_one());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), TimePoint::from_sec(1));
  EXPECT_TRUE(s.run_one());
  EXPECT_FALSE(s.run_one());
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule_after(TimeDelta::millis(10), chain);
  };
  s.schedule_after(TimeDelta::millis(10), chain);
  s.run_until(TimePoint::from_sec(1));
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.events_executed(), 10u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  std::vector<int64_t> times;
  for (int i = 1000; i >= 1; --i) {
    s.schedule_at(TimePoint::from_ns(i * 7919 % 4999 + 1),
                  [&, i] { times.push_back(s.now().ns()); });
  }
  s.run_until(TimePoint::from_sec(1));
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
  EXPECT_EQ(times.size(), 1000u);
}

TEST(SchedulerProfiler, AttributesDispatchesToCategories) {
  Scheduler s;
  SchedulerProfiler prof;
  s.set_profiler(&prof);
  for (int i = 0; i < 3; ++i) {
    s.schedule_at(TimePoint::from_sec(i + 1), [] {},
                  EventCategory::kTransport);
  }
  s.schedule_at(TimePoint::from_sec(10), [] {}, EventCategory::kProbe);
  s.schedule_at(TimePoint::from_sec(11), [] {});  // default: kGeneric
  s.run_until(TimePoint::from_sec(20));

  EXPECT_EQ(prof.stats(EventCategory::kTransport).dispatches, 3u);
  EXPECT_EQ(prof.stats(EventCategory::kProbe).dispatches, 1u);
  EXPECT_EQ(prof.stats(EventCategory::kGeneric).dispatches, 1u);
  EXPECT_EQ(prof.stats(EventCategory::kLinkTx).dispatches, 0u);
  EXPECT_EQ(prof.total_dispatches(), 5u);
  EXPECT_GE(prof.total_wall_ns(), 0);

  prof.reset();
  EXPECT_EQ(prof.total_dispatches(), 0u);
}

TEST(SchedulerProfiler, DetachedProfilerStopsRecording) {
  Scheduler s;
  SchedulerProfiler prof;
  s.set_profiler(&prof);
  s.schedule_at(TimePoint::from_sec(1), [] {});
  s.run_until(TimePoint::from_sec(2));
  s.set_profiler(nullptr);
  s.schedule_at(TimePoint::from_sec(3), [] {});
  s.run_until(TimePoint::from_sec(4));
  EXPECT_EQ(prof.total_dispatches(), 1u);
}

TEST(SchedulerProfiler, ReportNamesEveryDispatchedCategory) {
  Scheduler s;
  SchedulerProfiler prof;
  s.set_profiler(&prof);
  s.schedule_at(TimePoint::from_sec(1), [] {}, EventCategory::kLinkWire);
  s.schedule_at(TimePoint::from_sec(2), [] {}, EventCategory::kFault);
  s.run_until(TimePoint::from_sec(3));
  const std::string report = prof.report();
  EXPECT_NE(report.find("link_wire"), std::string::npos);
  EXPECT_NE(report.find("fault"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
  // Idle categories stay out of the table.
  EXPECT_EQ(report.find("adapter"), std::string::npos);
}

TEST(Scheduler, OnDispatchObserverSeesCategorizedRecords) {
  Scheduler s;
  std::vector<DispatchRecord> records;
  const ScopedSubscription sub = s.on_dispatch().subscribe_scoped(
      [&](const DispatchRecord& rec) { records.push_back(rec); });
  s.schedule_at(TimePoint::from_sec(1), [] {}, EventCategory::kAdapter);
  s.schedule_at(TimePoint::from_sec(2), [] {}, EventCategory::kLinkTx);
  s.run_until(TimePoint::from_sec(3));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at, TimePoint::from_sec(1));
  EXPECT_EQ(records[0].category, EventCategory::kAdapter);
  EXPECT_EQ(records[1].category, EventCategory::kLinkTx);
  EXPECT_EQ(records[1].at, TimePoint::from_sec(2));
}

TEST(SchedulerRepeat, ChainHoldsOneHeapEntry) {
  Scheduler s;
  int ticks = 0;
  s.schedule_at(TimePoint::from_sec(1), [&] {
    ++ticks;
    s.repeat_at(s.now() + TimeDelta::seconds(1));
  });
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(TimePoint::from_sec(100.5));
  EXPECT_EQ(ticks, 100);
  EXPECT_EQ(s.events_executed(), 100u);
  EXPECT_EQ(s.pending_events(), 1u);  // tick 101, never more
}

TEST(SchedulerRepeat, RunOneRearmsAndKeepsCategory) {
  Scheduler s;
  SchedulerProfiler profiler;
  s.set_profiler(&profiler);
  int ticks = 0;
  s.schedule_at(TimePoint::from_sec(1), [&] {
    if (++ticks < 3) s.repeat_at(s.now() + TimeDelta::seconds(2));
  }, EventCategory::kProbe);
  while (s.run_one()) {
  }
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.now(), TimePoint::from_sec(5));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(profiler.stats(EventCategory::kProbe).dispatches, 3u);
}

// The sample-grid pattern both ways: kTicks one-shots registered back to
// back, or one event that re-arms itself with repeat_at. Every grid time
// gets a tie registered before the grid, one registered after it, and one
// registered during the run (by the previous tick); a seeded mix of
// one-shots, some spawning more, lands on and just after grid times.
class GridMix {
 public:
  GridMix(bool chain, uint64_t seed) : chain_(chain), rng_(seed) {}

  std::vector<std::pair<std::string, TimePoint>> run() {
    for (int k = 1; k <= kTicks; ++k) at(grid(k), "pre@" + std::to_string(k));
    for (int i = 0; i < 40; ++i) one_shot("pre" + std::to_string(i));
    if (chain_) {
      sched_.schedule_at(grid(1), [this] {
        on_tick();
        if (ticks_ < kTicks) sched_.repeat_at(grid(ticks_ + 1));
      });
    } else {
      for (int k = 1; k <= kTicks; ++k) {
        sched_.schedule_at(grid(k), [this] { on_tick(); });
      }
    }
    for (int k = 1; k <= kTicks; ++k) at(grid(k), "post@" + std::to_string(k));
    for (int i = 0; i < 40; ++i) one_shot("post" + std::to_string(i));
    sched_.run_until(grid(kTicks + 2));
    return log_;
  }

  static constexpr int kTicks = 30;

 private:
  static TimePoint grid(int k) { return TimePoint::from_sec(k * 0.1); }

  // A grid time (a tie) half the time, else just after one; never past.
  TimePoint draw_time() {
    TimePoint t = grid(static_cast<int>(rng_.next_below(kTicks + 2)));
    if (rng_.bernoulli(0.5)) {
      t = t + TimeDelta::micros(1 + static_cast<int64_t>(rng_.next_below(99)));
    }
    return std::max(t, sched_.now());
  }

  void at(TimePoint t, const std::string& label) {
    sched_.schedule_at(t, [this, label] { fired(label); });
  }
  void one_shot(const std::string& label) { at(draw_time(), label); }

  void fired(const std::string& label) {
    log_.emplace_back(label, sched_.now());
    if (rng_.bernoulli(0.3)) one_shot(label + "/c");
    if (rng_.bernoulli(0.2)) at(sched_.now(), label + "/n");
  }

  void on_tick() {
    log_.emplace_back("tick", sched_.now());
    ++ticks_;
    at(grid(ticks_ + 1), "next-tick");
    if (rng_.bernoulli(0.3)) one_shot("tick/c");
  }

  bool chain_;
  Rng rng_;
  Scheduler sched_;
  int ticks_ = 0;
  std::vector<std::pair<std::string, TimePoint>> log_;
};

TEST(SchedulerRepeat, ChainDispatchesExactlyLikePreScheduledGrid) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    GridMix one_shots(false, seed);
    GridMix chain(true, seed);
    const auto expected = one_shots.run();
    const auto got = chain.run();
    ASSERT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(std::count_if(got.begin(), got.end(),
                            [](const auto& e) { return e.first == "tick"; }),
              GridMix::kTicks);
  }
}

TEST(SchedulerDeathTest, RepeatAtOutsideAHandlerFails) {
  Scheduler s;
  EXPECT_DEATH(s.repeat_at(TimePoint::from_sec(1)),
               "repeat_at called outside a running handler");
  s.schedule_at(TimePoint::from_sec(1), [] {});
  s.run_until(TimePoint::from_sec(2));
  EXPECT_DEATH(s.repeat_at(TimePoint::from_sec(3)),
               "repeat_at called outside a running handler");
}

TEST(SchedulerDeathTest, RepeatAtTwiceOrIntoThePastFails) {
  EXPECT_DEATH(
      {
        Scheduler s;
        s.schedule_at(TimePoint::from_sec(1), [&] {
          s.repeat_at(TimePoint::from_sec(2));
          s.repeat_at(TimePoint::from_sec(3));
        });
        s.run_until(TimePoint::from_sec(5));
      },
      "repeat_at called twice");
  EXPECT_DEATH(
      {
        Scheduler s;
        s.schedule_at(TimePoint::from_sec(2),
                      [&] { s.repeat_at(TimePoint::from_sec(1)); });
        s.run_until(TimePoint::from_sec(5));
      },
      "repeating into the past");
}

TEST(EventCategoryName, EveryCategoryHasAUniqueName) {
  std::vector<std::string> names;
  for (int i = 0; i < kEventCategoryCount; ++i) {
    names.emplace_back(event_category_name(static_cast<EventCategory>(i)));
    EXPECT_NE(names.back(), "unknown");
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace qa::sim
