// Discrete-event scheduler.
//
// The event queue is a 4-ary implicit min-heap keyed by (time, insertion
// sequence) so that simultaneous events run in deterministic FIFO order —
// 4-ary rather than binary because sift-down then touches a quarter of the
// levels, and the four children of a node share a cache line. The heap
// itself holds only 24-byte {time, seq, node} items; the callback and its
// capture live in a pool-allocated event node (free-list recycled, so a
// steady-state run performs no allocation per event), and callbacks are
// SmallFn (util/small_fn.h) with 48 bytes of inline capture storage, so
// scheduling does not heap-allocate the way std::function did.
//
// `schedule` returns an EventId that can be cancelled (lazy deletion with
// periodic compaction, so long-lived simulations that cancel many timers —
// every RAP retransmission timer, for one — do not accumulate dead heap
// entries or their captured state). Cancellation is O(1): the id encodes
// the node index plus a per-node generation, so no side lookup tables are
// maintained on the schedule/dispatch path. The scheduler is the single
// source of simulated time; its audited invariants are that time never
// moves backwards and that live + cancelled node counts always account for
// the heap exactly.
//
// Periodic work re-arms rather than pre-schedules: `repeat_at`, called
// from inside a running handler, puts that same event back in the heap
// under the sequence number it was first scheduled with. A grid of N
// ticks then occupies one heap entry instead of N, yet ties resolve
// exactly as they would against N one-shots registered at that call site
// (an event E runs before a same-time tick iff E.seq < the grid's seq).
//
// Observability: every event carries an EventCategory tag (sim/profiler.h)
// naming the subsystem it belongs to. With a SchedulerProfiler attached,
// each handler execution is timed with steady_clock and charged to its
// category; on_dispatch() subscribers hear every executed handler's sim
// time and category, never a wall-clock reading. With neither — the
// default — the dispatch path takes no clock readings and emits nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/profiler.h"
#include "util/event.h"
#include "util/logging.h"
#include "util/small_fn.h"
#include "util/time.h"

namespace qa::sim {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (>= now). `category` tags
  // the event for the profiler and trace exporter.
  EventId schedule_at(TimePoint at, SmallFn fn,
                      EventCategory category = EventCategory::kGeneric);
  // Schedules `fn` after `delay` (>= 0).
  EventId schedule_after(TimeDelta delay, SmallFn fn,
                         EventCategory category = EventCategory::kGeneric);

  // Re-arms the event whose handler is running to fire again at `at`
  // (>= now), keeping its original sequence number so its order among
  // same-time events is unchanged. Callable only from inside a running
  // handler, at most once per run of it; the re-armed event gets a fresh
  // EventId.
  void repeat_at(TimePoint at);

  // Cancels a pending event. Cancelling an already-fired or invalid id is a
  // harmless no-op, which keeps timer bookkeeping in agents simple.
  void cancel(EventId id);

  // Runs events until the queue is empty or simulated time would exceed
  // `until`. Time ends at exactly `until` even if the queue drains early.
  void run_until(TimePoint until);

  // Runs a single event if one is pending; returns false when the queue is
  // empty. Used by tests that single-step the simulation.
  bool run_one();

  size_t pending_events() const { return live_; }
  uint64_t events_executed() const { return executed_; }

  // Cancelled entries still occupying the heap (awaiting lazy deletion or
  // the next compaction). Exposed so tests can pin the reclaim behaviour.
  size_t cancelled_backlog() const { return cancelled_; }

  // Attaches (or detaches, with nullptr) a dispatch profiler. The profiler
  // must outlive the scheduler or be detached first.
  void set_profiler(SchedulerProfiler* profiler) { profiler_ = profiler; }

  // Fired after each executed handler when subscribed.
  Event<const DispatchRecord&>& on_dispatch() { return on_dispatch_; }

 private:
  static constexpr uint32_t kNoNode = UINT32_MAX;

  // Pool-allocated event body. Free nodes are chained through `free_next`;
  // `generation` increments on every reuse so stale EventIds miss.
  struct Node {
    TimePoint at;
    EventId id = kInvalidEventId;  // kInvalidEventId when free or fired
    uint32_t generation = 0;
    uint32_t free_next = kNoNode;
    EventCategory category = EventCategory::kGeneric;
    bool cancelled = false;
    SmallFn fn;
  };

  // Compact heap entry: comparisons never touch the node pool.
  struct HeapItem {
    TimePoint at;
    uint64_t seq;
    uint32_t node;
  };
  static bool earlier(const HeapItem& a, const HeapItem& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // A popped event, detached from the pool before dispatch so handlers may
  // freely schedule (and grow the pool) while it runs.
  struct Entry {
    TimePoint at;
    uint64_t seq = 0;
    EventCategory category = EventCategory::kGeneric;
    SmallFn fn;
  };

  static EventId make_id(uint32_t generation, uint32_t index) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(index) + 1);
  }

  uint32_t alloc_node();
  void release_node(uint32_t index);
  // Inserts `fn` at (`at`, `seq`); returns its new EventId.
  EventId push(TimePoint at, uint64_t seq, EventCategory category,
               SmallFn fn);

  // 4-ary heap maintenance.
  void sift_up(size_t i);
  void sift_down(size_t i);
  void pop_root();

  // Pops the next non-cancelled entry, or returns false.
  bool pop_next(Entry& out);
  // Drops cancelled entries from the heap top so heap_[0] is live.
  void prune_top();
  // Rebuilds the heap without the cancelled entries once they dominate it,
  // releasing their captured callables.
  void compact_if_worthwhile();
  // Audited invariant: live and cancelled nodes account for the heap.
  void audit_consistency() const {
    QA_INVARIANT_MSG(heap_.size() == live_ + cancelled_,
                     "heap=" << heap_.size() << " live=" << live_
                             << " cancelled=" << cancelled_);
  }

  // Advances time to `e.at`, dispatches it, and re-inserts it if its
  // handler called repeat_at.
  void execute(Entry& e);
  // Runs `e.fn`, timing it only when the profiler or a dispatch
  // subscriber will consume the measurement.
  void dispatch(Entry& e);

  TimePoint now_ = TimePoint::origin();
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  std::vector<HeapItem> heap_;
  std::vector<Node> pool_;
  uint32_t free_head_ = kNoNode;
  size_t live_ = 0;       // scheduled, not cancelled/fired
  size_t cancelled_ = 0;  // cancelled, still in heap_
  bool dispatching_ = false;  // a handler is running (repeat_at is legal)
  std::optional<TimePoint> rearm_at_;  // set by the running handler
  SchedulerProfiler* profiler_ = nullptr;
  Event<const DispatchRecord&> on_dispatch_;
};

}  // namespace qa::sim
