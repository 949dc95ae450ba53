// Crash-time flight recorder.
//
// A fixed-size ring of the most recent notable events (journey spans,
// adapter decisions, link outages — whatever the owner notes). During a
// healthy run it costs one ring slot per note and writes nothing. When a
// QA_CHECK / QA_INVARIANT fails, the hook installed by arm_crash_dump()
// dumps the ring — oldest first — to a JSONL artifact next to the run's
// manifest, so post-mortem triage starts from the last N things the
// simulation did instead of from a bare stack trace.
//
// Each line is one event: {"ts_ns":<sim time>,"kind":"...","data":{...}}.
// For a generic note `data` is caller-provided JSON (already encoded); the
// recorder does not interpret it. Journey spans — several per packet, and
// a healthy run never dumps — are kept as raw fields instead and
// formatted only when the ring is dumped.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/journey.h"
#include "util/time.h"

namespace qa {

class FlightRecorder {
 public:
  // `capacity` is the ring size: how many recent events a dump preserves.
  explicit FlightRecorder(size_t capacity = 1024);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends an event, overwriting the oldest once the ring is full.
  // `detail_json` must be a complete JSON value (object, string, ...);
  // pass "{}" when there is nothing to say.
  void note(TimePoint at, std::string_view kind, std::string detail_json);
  // Appends a journey span, dumped as kind "journey.<stage>" with data
  // {"id","flow","layer","seq"[,"hop"]}. Hop names resolve through
  // `journeys` when the ring is dumped, so it must outlive every dump.
  void note_journey(const JourneySpan& span, const JourneyRecorder& journeys);

  // The ring as JSONL, oldest event first.
  std::string to_jsonl() const;

  // Writes the ring to `path` (truncating). Safe to call directly; also
  // what the crash hook does.
  void dump(const std::string& path) const;

  // Installs a check-failure hook that dumps the ring to `path`. One
  // armed recorder per process (arming replaces any previous hook);
  // disarm() — also run by the destructor — removes it.
  void arm_crash_dump(const std::string& path);
  void disarm();

  size_t capacity() const { return capacity_; }
  size_t size() const { return ring_.size(); }
  // Total notes ever, including overwritten ones.
  int64_t notes() const { return notes_; }
  // Crash-hook dumps delivered (not direct dump() calls).
  int64_t crash_dumps() const { return crash_dumps_; }
  const std::string& crash_dump_path() const { return crash_dump_path_; }
  bool armed() const { return armed_; }

 private:
  // The JourneySpan fields a dump prints.
  struct JourneyNote {
    JourneyId id = kUntracedJourney;
    int64_t seq = -1;
    int32_t flow = -1;
    HopId hop = kNoHop;
    int16_t layer = -1;
    JourneyStage stage = JourneyStage::kSubmit;
  };
  // A generic note (kind + detail_json) or, when `journeys` is set, a
  // journey span kept raw until a dump formats it.
  struct Entry {
    int64_t sim_ns = 0;
    std::string kind;
    std::string detail_json;
    const JourneyRecorder* journeys = nullptr;
    JourneyNote journey;
  };

  // The slot the next note fills (a fresh one until the ring wraps).
  Entry& next_slot();

  size_t capacity_;
  std::vector<Entry> ring_;
  size_t next_ = 0;  // overwrite position once the ring has wrapped
  int64_t notes_ = 0;
  mutable int64_t crash_dumps_ = 0;
  bool armed_ = false;
  std::string crash_dump_path_;
};

}  // namespace qa
