#include "util/flightrec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/journey.h"
#include "util/json.h"

namespace qa {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(FlightRecorder, KeepsEventsInOrder) {
  FlightRecorder rec(8);
  rec.note(TimePoint::from_sec(1), "a", "{}");
  rec.note(TimePoint::from_sec(2), "b", "{\"x\":1}");
  const auto lines = lines_of(rec.to_jsonl());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"kind\":\"a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"b\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"data\":{\"x\":1}"), std::string::npos);
  EXPECT_EQ(rec.notes(), 2);
}

TEST(FlightRecorder, RingOverwritesOldestFirst) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    std::string kind = "e";
    kind += std::to_string(i);
    rec.note(TimePoint::from_sec(i), kind, "{}");
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.notes(), 10);
  const auto lines = lines_of(rec.to_jsonl());
  ASSERT_EQ(lines.size(), 4u);
  // The dump holds exactly the last 4 events, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[static_cast<size_t>(i)].find(
                  "\"kind\":\"e" + std::to_string(6 + i) + "\""),
              std::string::npos)
        << lines[static_cast<size_t>(i)];
  }
}

TEST(FlightRecorder, EveryDumpLineIsValidJson) {
  FlightRecorder rec(8);
  rec.note(TimePoint::from_sec(1), "weird \"kind\"\n\\", "{\"ok\":true}");
  rec.note(TimePoint::from_sec(2), "empty-data", "");
  for (const std::string& line : lines_of(rec.to_jsonl())) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(json_parse(line, &v, &error)) << error << "\n" << line;
    ASSERT_TRUE(v.is_object());
    EXPECT_NE(v.find("ts_ns"), nullptr);
    EXPECT_NE(v.find("kind"), nullptr);
    EXPECT_NE(v.find("data"), nullptr);
  }
}

TEST(FlightRecorder, CheckFailureDumpsTheRing) {
  const std::string path = testing::TempDir() + "/flightrec_crash.jsonl";
  std::remove(path.c_str());
  const CheckSink old_sink = check_sink();
  set_check_sink(CheckSink::kThrow);
  {
    FlightRecorder rec(16);
    rec.arm_crash_dump(path);
    rec.note(TimePoint::from_sec(1), "before_failure", "{\"n\":1}");
    EXPECT_THROW(QA_CHECK_MSG(false, "forced for flightrec test"),
                 CheckFailure);
    EXPECT_EQ(rec.crash_dumps(), 1);
  }
  set_check_sink(old_sink);

  const std::string dumped = slurp(path);
  EXPECT_NE(dumped.find("\"kind\":\"before_failure\""), std::string::npos)
      << dumped;
}

TEST(FlightRecorder, DisarmStopsCrashDumps) {
  const std::string path = testing::TempDir() + "/flightrec_disarm.jsonl";
  std::remove(path.c_str());
  const CheckSink old_sink = check_sink();
  set_check_sink(CheckSink::kThrow);
  {
    FlightRecorder rec(4);
    rec.arm_crash_dump(path);
    rec.disarm();
    rec.note(TimePoint::from_sec(1), "quiet", "{}");
    EXPECT_THROW(QA_CHECK(false), CheckFailure);
    EXPECT_EQ(rec.crash_dumps(), 0);
  }
  set_check_sink(old_sink);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

TEST(FlightRecorder, DestructorDisarmsTheHook) {
  const std::string path = testing::TempDir() + "/flightrec_dtor.jsonl";
  std::remove(path.c_str());
  const CheckSink old_sink = check_sink();
  set_check_sink(CheckSink::kThrow);
  {
    FlightRecorder rec(4);
    rec.arm_crash_dump(path);
  }
  // The recorder is gone; a failure now must not touch the dangling hook.
  EXPECT_THROW(QA_CHECK(false), CheckFailure);
  set_check_sink(old_sink);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

// Journey spans are stored raw and formatted only on dump; the dump must
// read exactly as the eager per-span format did (lines pinned from it).
// The script covers spans with and without a hop, an escaped hop name,
// an unknown journey id, and generic notes interleaved with spans.
void journey_script(JourneyRecorder& j, FlightRecorder& rec) {
  const HopId hop = j.register_hop("link \"a\"\\");
  JourneyOrigin o1;
  o1.flow = 3;
  o1.layer = 1;
  o1.seq = 10;
  o1.layer_seq = 5;
  o1.size_bytes = 500;
  const JourneyId id1 = j.begin_journey(o1, TimePoint::from_ns(1000000000));
  j.record_hop(id1, JourneyStage::kEnqueue, hop,
               TimePoint::from_ns(1000000001));
  rec.note(TimePoint::from_ns(1000000002), "adapter.layer_add",
           "{\"active_layers\":2}");
  j.record_hop(id1, JourneyStage::kTxStart, hop,
               TimePoint::from_ns(1000500000));
  j.record_hop(id1, JourneyStage::kTxComplete, hop,
               TimePoint::from_ns(1001000000));
  j.record_deliver(id1, TimePoint::from_ns(1021000000));
  j.record_ack(id1, TimePoint::from_ns(1041000000));
  JourneyOrigin o2;
  o2.flow = 4;
  o2.layer = -1;
  o2.seq = 11;
  o2.layer_seq = -1;
  o2.size_bytes = 500;
  const JourneyId id2 = j.begin_journey(o2, TimePoint::from_ns(1050000000));
  j.record_hop(id2, JourneyStage::kQueueDrop, hop,
               TimePoint::from_ns(1050000100));
  rec.note(TimePoint::from_ns(1060000000), "rap.backoff",
           "{\"rate_post\":1234.5}");
  j.record_loss_detected(id2, TimePoint::from_ns(1200000000));
  j.record_hop(999, JourneyStage::kWireDrop, hop,
               TimePoint::from_ns(1300000000));
  j.record_deliver(999, TimePoint::from_ns(1300000001));
}

constexpr const char* kJourneyDump[] = {
    R"({"ts_ns":1000000000,"kind":"journey.submit","data":{"id":1,"flow":3,"layer":1,"seq":10}})",
    R"({"ts_ns":1000000001,"kind":"journey.enqueue","data":{"id":1,"flow":3,"layer":1,"seq":10,"hop":"link \"a\"\\"}})",
    R"({"ts_ns":1000000002,"kind":"adapter.layer_add","data":{"active_layers":2}})",
    R"({"ts_ns":1000500000,"kind":"journey.tx_start","data":{"id":1,"flow":3,"layer":1,"seq":10,"hop":"link \"a\"\\"}})",
    R"({"ts_ns":1001000000,"kind":"journey.tx_complete","data":{"id":1,"flow":3,"layer":1,"seq":10,"hop":"link \"a\"\\"}})",
    R"({"ts_ns":1021000000,"kind":"journey.deliver","data":{"id":1,"flow":3,"layer":1,"seq":10}})",
    R"({"ts_ns":1041000000,"kind":"journey.ack","data":{"id":1,"flow":3,"layer":1,"seq":10}})",
    R"({"ts_ns":1050000000,"kind":"journey.submit","data":{"id":2,"flow":4,"layer":-1,"seq":11}})",
    R"({"ts_ns":1050000100,"kind":"journey.queue_drop","data":{"id":2,"flow":4,"layer":-1,"seq":11,"hop":"link \"a\"\\"}})",
    R"({"ts_ns":1060000000,"kind":"rap.backoff","data":{"rate_post":1234.5}})",
    R"({"ts_ns":1200000000,"kind":"journey.loss_detected","data":{"id":2,"flow":4,"layer":-1,"seq":11}})",
    R"({"ts_ns":1300000000,"kind":"journey.wire_drop","data":{"id":999,"flow":-1,"layer":-1,"seq":-1,"hop":"link \"a\"\\"}})",
    R"({"ts_ns":1300000001,"kind":"journey.deliver","data":{"id":999,"flow":-1,"layer":-1,"seq":-1}})",
};

std::string journey_dump(size_t capacity) {
  JourneyRecorder journeys;
  FlightRecorder rec(capacity);
  auto sub = journeys.on_span().subscribe_scoped(
      [&](const JourneySpan& span) { rec.note_journey(span, journeys); });
  journey_script(journeys, rec);
  EXPECT_EQ(rec.notes(), 13);
  return rec.to_jsonl();
}

TEST(FlightRecorder, RawJourneyNotesDumpAsTheEagerFormat) {
  std::string want;
  for (const char* line : kJourneyDump) {
    want += line;
    want += '\n';
  }
  EXPECT_EQ(journey_dump(64), want);
}

TEST(FlightRecorder, WrappedRingDumpsTheLastJourneyNotes) {
  // Capacity 5 keeps the last five of the thirteen notes, oldest first.
  std::string want;
  for (size_t i = 8; i < 13; ++i) {
    want += kJourneyDump[i];
    want += '\n';
  }
  EXPECT_EQ(journey_dump(5), want);
}

}  // namespace
}  // namespace qa
