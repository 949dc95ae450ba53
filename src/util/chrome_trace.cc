#include "util/chrome_trace.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "util/json.h"
#include "util/logging.h"

namespace qa {

namespace {

// Room reserved for an event's head: separator and ph/pid/tid (at most
// 44 bytes) plus the ts, whose printf fallback gets kEventHeadBytes / 2.
constexpr size_t kEventHeadBytes = 128;

// Below this magnitude, ns/1000 printed with three decimals from integer
// arithmetic equals printf("%.3f", ns * 1e-3): the double's rounding
// error (< ns * 1e-3 * 2^-52) stays under the half-thousandth that could
// flip the last digit. 1e15 ns is eleven sim days.
constexpr int64_t kExactTsNs = TimeDelta::seconds(1'000'000).ns();

// Spec unit is microseconds; keep nanosecond precision as a fraction.
char* format_ts(char* out, int64_t ns) {
  if (ns <= -kExactTsNs || ns >= kExactTsNs) {
    const int n = std::snprintf(out, kEventHeadBytes / 2, "%.3f",
                                static_cast<double>(ns) * 1e-3);
    return out + n;
  }
  if (ns < 0) {
    *out++ = '-';
    ns = -ns;
  }
  out = std::to_chars(out, out + 24, ns / 1000).ptr;
  const auto frac = static_cast<int>(ns % 1000);
  *out++ = '.';
  *out++ = static_cast<char>('0' + frac / 100);
  *out++ = static_cast<char>('0' + frac / 10 % 10);
  *out++ = static_cast<char>('0' + frac % 10);
  return out;
}

char* put(char* out, std::string_view bytes) {
  std::memcpy(out, bytes.data(), bytes.size());
  return out + bytes.size();
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(const std::string& path)
    : out_(path, std::ios::trunc),
      buf_(std::make_unique<char[]>(kBufferBytes)) {
  if (!out_) throw std::runtime_error("cannot create trace file: " + path);
  append("[");
}

ChromeTraceWriter::~ChromeTraceWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    QA_LOG(Error) << "chrome trace: " << e.what();
  }
}

char* ChromeTraceWriter::reserve(size_t n) {
  if (used_ + n > kBufferBytes) flush();
  return buf_.get() + used_;
}

void ChromeTraceWriter::flush() {
  out_.write(buf_.get(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void ChromeTraceWriter::append(std::string_view bytes) {
  if (bytes.size() > kBufferBytes) {
    flush();
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return;
  }
  commit(put(reserve(bytes.size()), bytes));
}

void ChromeTraceWriter::append_quoted(std::string_view s) {
  const size_t worst = json_quote_max_size(s.size());
  if (worst > kBufferBytes) {
    append(json_quote(s));
    return;
  }
  commit(json_quote_to(reserve(worst), s));
}

void ChromeTraceWriter::write_event(char ph, TimePoint t, int track,
                                    std::string_view name,
                                    std::span<const TraceArg> args) {
  if (closed_) return;
  char* p = reserve(kEventHeadBytes);
  p = put(p, first_event_ ? "\n{\"ph\":\"" : ",\n{\"ph\":\"");
  first_event_ = false;
  *p++ = ph;
  p = put(p, "\",\"pid\":1,\"tid\":");
  p = std::to_chars(p, p + 16, track).ptr;
  p = put(p, ",\"ts\":");
  commit(format_ts(p, t.ns()));
  if (!name.empty()) {
    append(",\"name\":");
    append_quoted(name);
  }
  if (ph == 'i') append(",\"s\":\"t\"");  // instant scoped to its track
  if (!args.empty()) {
    append(",\"args\":{");
    bool first = true;
    for (const TraceArg& arg : args) {
      if (!first) append(",");
      first = false;
      append_quoted(arg.key);
      append(":");
      switch (arg.type) {
        case TraceArg::Type::kInt:
          commit(json_number_to(reserve(kJsonNumberMaxSize), arg.i));
          break;
        case TraceArg::Type::kDouble:
          commit(json_number_to(reserve(kJsonNumberMaxSize), arg.d));
          break;
        case TraceArg::Type::kBool:
          append(arg.b ? "true" : "false");
          break;
        case TraceArg::Type::kString:
          append_quoted(arg.s);
          break;
      }
    }
    append("}");
  }
  append("}");
  ++events_;
}

void ChromeTraceWriter::name_track(int track, std::string_view name) {
  // Metadata events carry no meaningful ts; origin keeps them sorted first.
  const TraceArg args[] = {{"name", name}};
  write_event('M', TimePoint::origin(), track, "thread_name", args);
}

void ChromeTraceWriter::span_begin(TimePoint t, int track,
                                   std::string_view name, Args args) {
  write_event('B', t, track, name, std::span(args.begin(), args.size()));
}

void ChromeTraceWriter::span_end(TimePoint t, int track) {
  write_event('E', t, track, {}, {});
}

void ChromeTraceWriter::instant(TimePoint t, int track, std::string_view name,
                                Args args) {
  write_event('i', t, track, name, std::span(args.begin(), args.size()));
}

void ChromeTraceWriter::counter(TimePoint t, int track, std::string_view name,
                                std::string_view series, double value) {
  const TraceArg args[] = {{series, value}};
  write_event('C', t, track, name, args);
}

void ChromeTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  append("\n]\n");
  flush();
  out_.close();
  if (!out_) throw std::runtime_error("trace file write failed");
}

}  // namespace qa
