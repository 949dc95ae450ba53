// ChromeTraceWriter output format, pinned byte for byte.
//
// The expected document below was written by the writer's earlier
// ostream/snprintf implementation; the buffered writer must reproduce it
// exactly, so traces stay comparable across versions.
#include "util/chrome_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace qa {
namespace {

using W = ChromeTraceWriter;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr const char* kScriptTrace = R"json([
{"ph":"M","pid":1,"tid":1,"ts":0.000,"name":"thread_name","args":{"name":"scheduler"}},
{"ph":"M","pid":1,"tid":18,"ts":0.000,"name":"thread_name","args":{"name":"video layer 2"}},
{"ph":"B","pid":1,"tid":1,"ts":0.000,"name":"transport","args":{"wall_ns":44053}},
{"ph":"E","pid":1,"tid":1,"ts":0.000},
{"ph":"i","pid":1,"tid":2,"ts":0.001,"name":"backoff","s":"t","args":{"rate_post":1234.5}},
{"ph":"C","pid":1,"tid":3,"ts":0.999,"name":"adapter buffer","args":{"total_bytes":250}},
{"ph":"C","pid":1,"tid":3,"ts":1.000,"name":"adapter buffer","args":{"total_bytes":0.1}},
{"ph":"i","pid":1,"tid":18,"ts":1.001,"name":"needs \"esc\" \\ \n \u0001 end","s":"t","args":{"int":-7,"dbl":0.30000000000000004,"yes":true,"no":false,"str":"hop \"q\" \\ \n \u0001 \t\r\u001f/","k\"ey":0}},
{"ph":"B","pid":1,"tid":1,"ts":119999999.999,"name":"link_wire","args":{"wall_ns":1082}},
{"ph":"E","pid":1,"tid":1,"ts":119999999.999},
{"ph":"i","pid":1,"tid":4,"ts":119999999.999,"name":"rebuffer_start","s":"t"},
{"ph":"C","pid":1,"tid":5,"ts":119999999.999,"name":"queue \"x\"","args":{"by\\tes":null}},
{"ph":"C","pid":1,"tid":5,"ts":119999999.999,"name":"big","args":{"v":1e+21}}
]
)json";

TEST(ChromeTraceWriter, ScriptMatchesThePinnedBytes) {
  const std::string path = temp_path("chrome_trace_script.json");
  W w(path);
  w.name_track(W::kSchedulerTrack, "scheduler");
  w.name_track(W::kJourneyTrackBase + 2, "video layer 2");
  w.span_begin(TimePoint::from_ns(0), W::kSchedulerTrack, "transport",
               {{"wall_ns", int64_t{44053}}});
  w.span_end(TimePoint::from_ns(0), W::kSchedulerTrack);
  w.instant(TimePoint::from_ns(1), W::kTransportTrack, "backoff",
            {{"rate_post", 1234.5}});
  w.counter(TimePoint::from_ns(999), W::kAdapterTrack, "adapter buffer",
            "total_bytes", 250.0);
  w.counter(TimePoint::from_ns(1000), W::kAdapterTrack, "adapter buffer",
            "total_bytes", 0.1);
  w.instant(TimePoint::from_ns(1001), W::kJourneyTrackBase + 2,
            "needs \"esc\" \\ \n \x01 end",
            {{"int", -7},
             {"dbl", 0.1 + 0.2},
             {"yes", true},
             {"no", false},
             {"str", "hop \"q\" \\ \n \x01 \t\r\x1f/"},
             {"k\"ey", 0}});
  w.span_begin(TimePoint::from_ns(119999999999), W::kSchedulerTrack,
               "link_wire", {{"wall_ns", int64_t{1082}}});
  w.span_end(TimePoint::from_ns(119999999999), W::kSchedulerTrack);
  w.instant(TimePoint::from_ns(119999999999), W::kClientTrack,
            "rebuffer_start");
  w.counter(TimePoint::from_ns(119999999999), W::kLinkTrack, "queue \"x\"",
            "by\\tes", std::numeric_limits<double>::quiet_NaN());
  w.counter(TimePoint::from_ns(119999999999), W::kLinkTrack, "big", "v",
            1e21);
  EXPECT_EQ(w.events_written(), 13);
  w.close();
  w.close();  // idempotent
  w.instant(TimePoint::from_ns(5), W::kClientTrack, "after_close");
  EXPECT_EQ(w.events_written(), 13);
  EXPECT_FALSE(w.is_open());
  EXPECT_EQ(slurp(path), kScriptTrace);
}

// ts is printed from integer nanoseconds; it must read exactly as
// printf("%.3f", ns * 1e-3) did, across every magnitude a run reaches.
TEST(ChromeTraceWriter, TimestampsMatchPrintfOnSampledValues) {
  std::vector<int64_t> ns = {0, 1, 999, 1000, 1001, 119999999999,
                             -1, -999, -1000, -1001,
                             999999999999999, 1000000000000000,
                             -1000000000000000,
                             std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::min() + 1};
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform magnitudes from 1 ns to ~3e17 ns.
    const double mag = std::pow(10.0, rng.uniform(0, 17.5));
    const auto v = static_cast<int64_t>(mag);
    ns.push_back(rng.bernoulli(0.1) ? -v : v);
  }
  const std::string path = temp_path("chrome_trace_ts.json");
  {
    W w(path);
    for (const int64_t t : ns) w.span_end(TimePoint::from_ns(t), 1);
  }
  std::istringstream lines(slurp(path));
  std::string line;
  std::getline(lines, line);  // "["
  for (const int64_t t : ns) {
    ASSERT_TRUE(std::getline(lines, line));
    char want[64];
    std::snprintf(want, sizeof want, "%.3f", static_cast<double>(t) * 1e-3);
    const std::string prefix = "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":";
    ASSERT_EQ(line.substr(0, prefix.size()), prefix);
    const size_t end = line.find('}');
    ASSERT_EQ(line.substr(prefix.size(), end - prefix.size()), want)
        << "ns=" << t;
  }
}

// Names and string args longer than the buffer take the chunked path.
TEST(ChromeTraceWriter, OversizedStringsSurviveIntact) {
  std::string name(W::kBufferBytes + 123, 'n');
  name[7] = '"';
  name[W::kBufferBytes] = '\x02';
  const std::string value(3 * W::kBufferBytes, 'v');
  const std::string path = temp_path("chrome_trace_big.json");
  {
    W w(path);
    w.instant(TimePoint::from_ns(5), 1, name, {{"value", value}});
    w.counter(TimePoint::from_ns(6), 1, "small", "x", 1.0);
  }
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(slurp(path), &doc, &error)) << error;
  ASSERT_EQ(doc.array.size(), 2u);
  EXPECT_EQ(doc.array[0].find("name")->str, name);
  EXPECT_EQ(doc.array[0].find("args")->find("value")->str, value);
  EXPECT_EQ(doc.array[1].find("name")->str, "small");
}

// A write failure surfaces from an explicit close(); the destructor logs
// it instead of throwing (a throw there would terminate the program).
TEST(ChromeTraceWriter, WriteFailureThrowsFromCloseOnly) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail writes against";
  }
  {
    W w("/dev/full");
    w.instant(TimePoint::from_ns(1), 1, "x");
    EXPECT_THROW(w.close(), std::runtime_error);
    EXPECT_NO_THROW(w.close());  // already closed
  }
  EXPECT_NO_THROW({
    W w("/dev/full");
    w.instant(TimePoint::from_ns(1), 1, "x");
  });
}

}  // namespace
}  // namespace qa
