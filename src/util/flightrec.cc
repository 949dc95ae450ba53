#include "util/flightrec.h"

#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace qa {

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

FlightRecorder::~FlightRecorder() { disarm(); }

FlightRecorder::Entry& FlightRecorder::next_slot() {
  ++notes_;
  if (ring_.size() < capacity_) return ring_.emplace_back();
  Entry& e = ring_[next_];
  next_ = (next_ + 1) % capacity_;
  return e;
}

void FlightRecorder::note(TimePoint at, std::string_view kind,
                          std::string detail_json) {
  Entry& e = next_slot();
  e.sim_ns = at.ns();
  e.kind.assign(kind.data(), kind.size());
  e.detail_json = std::move(detail_json);
  e.journeys = nullptr;
}

void FlightRecorder::note_journey(const JourneySpan& span,
                                  const JourneyRecorder& journeys) {
  Entry& e = next_slot();
  e.sim_ns = span.at.ns();
  e.journeys = &journeys;
  e.journey = {span.id, span.seq, span.flow, span.hop, span.layer, span.stage};
}

std::string FlightRecorder::to_jsonl() const {
  std::string out;
  const size_t n = ring_.size();
  // Before the ring wraps, next_ stays 0 and entry 0 is the oldest; after
  // wrapping, next_ points at the oldest surviving entry.
  const size_t oldest = ring_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = ring_[(oldest + i) % n];
    out += "{\"ts_ns\":";
    out += json_number(e.sim_ns);
    if (e.journeys == nullptr) {
      out += ",\"kind\":";
      out += json_quote(e.kind);
      out += ",\"data\":";
      out += e.detail_json.empty() ? std::string("{}") : e.detail_json;
    } else {
      const JourneyNote& s = e.journey;
      out += ",\"kind\":\"journey.";
      out += journey_stage_name(s.stage);  // plain identifiers, no escapes
      out += "\",\"data\":{\"id\":";
      out += json_number(uint64_t{s.id});
      out += ",\"flow\":";
      out += json_number(int64_t{s.flow});
      out += ",\"layer\":";
      out += json_number(int64_t{s.layer});
      out += ",\"seq\":";
      out += json_number(s.seq);
      if (s.hop != kNoHop) {
        out += ",\"hop\":";
        out += json_quote(e.journeys->hop_name(s.hop));
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

void FlightRecorder::dump(const std::string& path) const {
  write_text_file(path, to_jsonl());
}

void FlightRecorder::arm_crash_dump(const std::string& path) {
  crash_dump_path_ = path;
  armed_ = true;
  set_check_failure_hook([this] {
    dump(crash_dump_path_);
    ++crash_dumps_;
  });
}

void FlightRecorder::disarm() {
  if (!armed_) return;
  armed_ = false;
  set_check_failure_hook({});
}

}  // namespace qa
