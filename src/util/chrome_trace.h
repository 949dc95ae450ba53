// Chrome trace-event exporter: turns simulator trace points into a JSON
// file loadable by Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Format: the "JSON array" flavour of the trace-event spec, written one
// event per line so the file doubles as JSONL for ad-hoc grepping. Event
// phases used:
//
//   B/E  span begin/end — scheduler handler execution (the pair shares one
//        sim-time ts; measured wall-clock cost rides in args)
//   i    instant — backoffs, layer adds/drops, rebuffer transitions
//   C    counter track — transmission rate, receiver buffer, queue depth
//   M    metadata — human-readable track names
//
// Timestamps are *simulated* time: ts is sim nanoseconds expressed in the
// spec's microsecond unit (fractional, so nanosecond precision survives).
// Tracks (tid) separate subsystems into viewer lanes; all events share one
// process (pid 1).
//
// Cost: a traced run emits an event per scheduler dispatch, so the writer
// formats each event straight into one bounded buffer (kBufferBytes,
// flushed to the file in blocks) — no per-event allocation, no printf.
// Args are typed values (TraceArg) the writer formats itself; keys and
// string values are borrowed for the duration of the call.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "util/time.h"

namespace qa {

// One entry of an event's "args" object: a key and an integer, double,
// bool or string value. Non-owning: the key and a string value must
// outlive the call that takes them.
struct TraceArg {
  enum class Type : uint8_t { kInt, kDouble, kBool, kString };

  template <std::signed_integral T>
  constexpr TraceArg(std::string_view k, T v)
      : key(k), type(Type::kInt), i(v) {}
  // Unsigned values would otherwise convert to double silently; cast them
  // to int64_t at the call site.
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  TraceArg(std::string_view k, T v) = delete;
  constexpr TraceArg(std::string_view k, double v)
      : key(k), type(Type::kDouble), d(v) {}
  template <std::same_as<bool> B>
  constexpr TraceArg(std::string_view k, B v)
      : key(k), type(Type::kBool), b(v) {}
  constexpr TraceArg(std::string_view k, std::string_view v)
      : key(k), type(Type::kString), s(v) {}
  constexpr TraceArg(std::string_view k, const char* v)
      : TraceArg(k, std::string_view(v)) {}

  std::string_view key;
  Type type;
  int64_t i = 0;
  double d = 0;
  bool b = false;
  std::string_view s;
};

class ChromeTraceWriter {
 public:
  // An event's "args", typically a braced list at the call site.
  using Args = std::initializer_list<TraceArg>;

  // Viewer lanes, one per subsystem.
  static constexpr int kSchedulerTrack = 1;
  static constexpr int kTransportTrack = 2;
  static constexpr int kAdapterTrack = 3;
  static constexpr int kClientTrack = 4;
  static constexpr int kLinkTrack = 5;
  // Farm-level control plane: admission verdicts, shed-ladder rung.
  static constexpr int kFarmTrack = 6;
  // Per-video-layer journey lanes: layer k renders on track
  // kJourneyTrackBase + k (named lazily on the layer's first span).
  static constexpr int kJourneyTrackBase = 16;

  // Formatting buffer: events accumulate here and reach the file in
  // blocks of at most this many bytes.
  static constexpr size_t kBufferBytes = 32 * 1024;

  // Opens `path` for writing; throws std::runtime_error on failure.
  explicit ChromeTraceWriter(const std::string& path);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  // Destruction closes the file (finalizing the JSON array) if close()
  // was not called explicitly. A write failure there is logged, not
  // thrown; call close() to have it thrown.
  ~ChromeTraceWriter();

  // Labels `track` in the viewer ("M" thread_name metadata).
  void name_track(int track, std::string_view name);

  // Span over a handler execution. Both halves usually carry the same sim
  // time (handlers are instantaneous in sim time); the measured wall cost
  // goes in `args` on the begin event.
  void span_begin(TimePoint t, int track, std::string_view name,
                  Args args = {});
  void span_end(TimePoint t, int track);

  // Point-in-time marker with optional detail args.
  void instant(TimePoint t, int track, std::string_view name, Args args = {});

  // Counter-track sample: `name` is the track, `series` the line within it.
  void counter(TimePoint t, int track, std::string_view name,
               std::string_view series, double value);

  // Finalizes the JSON array and closes the file; throws
  // std::runtime_error when any write failed. Idempotent; events emitted
  // after close() are dropped.
  void close();
  bool is_open() const { return !closed_; }
  int64_t events_written() const { return events_; }

 private:
  // Common emission path: one `{...}` object per line.
  void write_event(char ph, TimePoint t, int track, std::string_view name,
                   std::span<const TraceArg> args);
  // Room for `n` more bytes (n <= kBufferBytes), flushing first if the
  // buffer cannot take them; returns where to write.
  char* reserve(size_t n);
  void commit(char* end) { used_ = static_cast<size_t>(end - buf_.get()); }
  void append(std::string_view bytes);
  void append_quoted(std::string_view s);
  void flush();

  std::ofstream out_;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
  bool first_event_ = true;
  bool closed_ = false;
  int64_t events_ = 0;
};

}  // namespace qa
