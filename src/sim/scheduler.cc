#include "sim/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace qa::sim {

uint32_t Scheduler::alloc_node() {
  if (free_head_ != kNoNode) {
    const uint32_t idx = free_head_;
    free_head_ = pool_[idx].free_next;
    pool_[idx].free_next = kNoNode;
    return idx;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void Scheduler::release_node(uint32_t index) {
  Node& n = pool_[index];
  n.fn.reset();
  n.id = kInvalidEventId;
  n.cancelled = false;
  n.free_next = free_head_;
  free_head_ = index;
}

EventId Scheduler::schedule_at(TimePoint at, SmallFn fn,
                               EventCategory category) {
  QA_CHECK_MSG(at >= now_,
               "scheduling into the past: at=" << at << " now=" << now_);
  return push(at, next_seq_++, category, std::move(fn));
}

EventId Scheduler::push(TimePoint at, uint64_t seq, EventCategory category,
                        SmallFn fn) {
  const uint32_t idx = alloc_node();
  Node& n = pool_[idx];
  n.at = at;
  n.category = category;
  n.cancelled = false;
  n.fn = std::move(fn);
  ++n.generation;
  n.id = make_id(n.generation, idx);
  heap_.push_back(HeapItem{at, seq, idx});
  sift_up(heap_.size() - 1);
  ++live_;
  audit_consistency();
  return n.id;
}

EventId Scheduler::schedule_after(TimeDelta delay, SmallFn fn,
                                  EventCategory category) {
  QA_CHECK_GE(delay, TimeDelta::zero());
  return schedule_at(now_ + delay, std::move(fn), category);
}

void Scheduler::repeat_at(TimePoint at) {
  QA_CHECK_MSG(dispatching_, "repeat_at called outside a running handler");
  QA_CHECK_MSG(!rearm_at_, "repeat_at called twice by one handler");
  QA_CHECK_MSG(at >= now_,
               "repeating into the past: at=" << at << " now=" << now_);
  rearm_at_ = at;
}

void Scheduler::cancel(EventId id) {
  // Only ids still pending flip to cancelled; already-fired (or bogus,
  // or reused-node) ids miss the generation check and are dropped on the
  // floor, so fire-then-cancel timer patterns cost nothing.
  if (id == kInvalidEventId) return;
  const uint64_t slot = id & 0xffffffffull;
  if (slot == 0 || slot > pool_.size()) return;
  Node& n = pool_[static_cast<size_t>(slot - 1)];
  if (n.id != id || n.cancelled) return;
  n.cancelled = true;
  --live_;
  ++cancelled_;
  compact_if_worthwhile();
  audit_consistency();
}

void Scheduler::compact_if_worthwhile() {
  // Rebuilding is O(n); amortize it against the >= n/2 dead entries freed.
  if (cancelled_ < 64 || cancelled_ * 2 < heap_.size()) return;
  size_t kept = 0;
  for (const HeapItem& item : heap_) {
    if (pool_[item.node].cancelled) {
      release_node(item.node);
    } else {
      heap_[kept++] = item;
    }
  }
  heap_.resize(kept);
  cancelled_ = 0;
  // Floyd heap construction: sift down every internal node.
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

void Scheduler::sift_up(size_t i) {
  const HeapItem item = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!earlier(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void Scheduler::sift_down(size_t i) {
  const size_t n = heap_.size();
  const HeapItem item = heap_[i];
  while (true) {
    const size_t first = i * 4 + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t last = std::min(first + 4, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], item)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

void Scheduler::pop_root() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::prune_top() {
  while (!heap_.empty() && pool_[heap_[0].node].cancelled) {
    release_node(heap_[0].node);
    pop_root();
    --cancelled_;
  }
}

bool Scheduler::pop_next(Entry& out) {
  prune_top();
  if (heap_.empty()) return false;
  const uint32_t idx = heap_[0].node;
  out.at = heap_[0].at;
  out.seq = heap_[0].seq;
  pop_root();
  Node& n = pool_[idx];
  out.category = n.category;
  out.fn = std::move(n.fn);
  release_node(idx);
  --live_;
  audit_consistency();
  return true;
}

void Scheduler::run_until(TimePoint until) {
  Entry e;
  while (true) {
    // Prune cancelled entries from the top so the peeked time is real.
    prune_top();
    if (heap_.empty() || heap_[0].at > until) break;
    if (!pop_next(e)) break;
    execute(e);
  }
  if (now_ < until) now_ = until;
}

bool Scheduler::run_one() {
  Entry e;
  if (!pop_next(e)) return false;
  execute(e);
  return true;
}

void Scheduler::execute(Entry& e) {
  QA_INVARIANT_MSG(e.at >= now_, "time ran backwards: event at "
                                     << e.at << " with now=" << now_);
  now_ = e.at;
  ++executed_;
  dispatching_ = true;
  dispatch(e);
  dispatching_ = false;
  if (rearm_at_) {
    push(*rearm_at_, e.seq, e.category, std::move(e.fn));
    rearm_at_.reset();
  }
}

void Scheduler::dispatch(Entry& e) {
  if (profiler_ == nullptr) {
    e.fn();  // untimed fast path: no clock reads
  } else {
    // qa-analyzer: allow(wall-clock) — profiler wall-time measurement only;
    // wall_ns feeds SchedulerProfiler, never simulated state.
    const auto start = std::chrono::steady_clock::now();
    e.fn();
    profiler_->record(
        e.category,
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // qa-analyzer: allow(wall-clock) — second read of the same
            // profiling interval; same non-digest sink as above.
            std::chrono::steady_clock::now() - start)
            .count());
  }
  on_dispatch_.emit(DispatchRecord{e.at, e.category});
}

}  // namespace qa::sim
