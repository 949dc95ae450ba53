// Scheduler event categories and the wall-clock dispatch profiler.
//
// Every scheduled callback carries an EventCategory tag naming the
// subsystem that will run when it fires. The tag costs one byte per heap
// entry and buys two things: the profiler can attribute *wall-clock* time
// (where does a simulated second actually go — link serialization events?
// transport timers? probes?) and the trace exporter can lane events by
// subsystem without parsing anything.
//
// SchedulerProfiler is a passive accumulator the Scheduler writes into
// when attached (Scheduler::set_profiler). Detached — the default — the
// dispatch path takes no steady_clock readings at all, keeping the
// simulator's hot loop unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/time.h"

namespace qa::sim {

enum class EventCategory : uint8_t {
  kGeneric = 0,   // untagged legacy call sites
  kLinkTx,        // link serialization completions
  kLinkWire,      // propagation-delay deliveries
  kTransport,     // RAP/TCP/CBR timers and transmissions
  kAdapter,       // quality-adapter driven work
  kProbe,         // samplers, probes, experiment measurement
  kFault,         // fault-injection actions
};
inline constexpr int kEventCategoryCount = 7;

const char* event_category_name(EventCategory c);

// One dispatched scheduler event, as seen by Scheduler::on_dispatch()
// subscribers (the trace exporter turns these into B/E spans).
struct DispatchRecord {
  TimePoint at;            // simulated firing time
  EventCategory category;
};

class SchedulerProfiler {
 public:
  struct CategoryStats {
    uint64_t dispatches = 0;
    int64_t wall_ns = 0;
  };

  void record(EventCategory c, int64_t wall_ns) {
    CategoryStats& s = stats_[static_cast<size_t>(c)];
    ++s.dispatches;
    s.wall_ns += wall_ns;
  }

  const CategoryStats& stats(EventCategory c) const {
    return stats_[static_cast<size_t>(c)];
  }
  uint64_t total_dispatches() const;
  int64_t total_wall_ns() const;

  void reset() { stats_ = {}; }

  // Human-readable per-category table (dispatches, total/mean wall time),
  // sorted by total wall time. Used by bench output and qa_trace.
  std::string report() const;

 private:
  std::array<CategoryStats, kEventCategoryCount> stats_{};
};

}  // namespace qa::sim
