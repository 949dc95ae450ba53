// SSE framing, the LiveFeed hand-off buffer, and the loopback HTTP
// server, exercised over real sockets (port 0, ephemeral). The last test
// pushes adversarial metric names through the full pipeline: registry ->
// snapshot -> canonical JSON -> SSE frame -> wire -> parse -> JSON.
#include "util/http_sse.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/metrics_registry.h"

namespace qa {
namespace {

// "e<i>", built by appending ("e" + std::to_string(i) trips GCC 12's
// -Wrestrict false positive under -Werror).
std::string event_name(int i) {
  std::string name = "e";
  name += std::to_string(i);
  return name;
}

// ---- Framing ---------------------------------------------------------------

TEST(SseFraming, SingleFrameRoundTrips) {
  const std::string wire = sse_frame(7, "metrics", "{\"seq\": 1}");
  std::vector<SseFrame> frames;
  EXPECT_EQ(sse_parse(wire, &frames), wire.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].id, 7u);
  EXPECT_EQ(frames[0].event, "metrics");
  EXPECT_EQ(frames[0].data, "{\"seq\": 1}");
}

TEST(SseFraming, MultiLineDataSplitsAndRejoins) {
  const std::string payload = "line one\nline two\n\nline four";
  const std::string wire = sse_frame(1, "note", payload);
  // One data: line per payload line, including the empty one.
  size_t data_lines = 0;
  for (size_t pos = 0; (pos = wire.find("data:", pos)) != std::string::npos;
       pos += 5) {
    ++data_lines;
  }
  EXPECT_EQ(data_lines, 4u);

  std::vector<SseFrame> frames;
  EXPECT_EQ(sse_parse(wire, &frames), wire.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].data, payload);
}

TEST(SseFraming, CarriageReturnsAreStripped) {
  const std::string wire = sse_frame(1, "note", "a\r\nb\rc");
  EXPECT_EQ(wire.find('\r'), std::string::npos);
  std::vector<SseFrame> frames;
  EXPECT_EQ(sse_parse(wire, &frames), wire.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].data, "a\nbc");
}

TEST(SseFraming, ParserConsumesOnlyCompleteFrames) {
  const std::string a = sse_frame(1, "x", "first");
  const std::string b = sse_frame(2, "y", "second");
  const std::string partial = b.substr(0, b.size() - 1);  // no blank line

  std::vector<SseFrame> frames;
  const size_t consumed = sse_parse(a + partial, &frames);
  EXPECT_EQ(consumed, a.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].data, "first");

  // Feeding the remainder completes the second frame — the streaming
  // reader's append-and-reparse loop.
  const std::string rest = (a + b).substr(consumed);
  frames.clear();
  EXPECT_EQ(sse_parse(rest, &frames), rest.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].id, 2u);
  EXPECT_EQ(frames[0].data, "second");
}

TEST(SseFraming, CrLfTerminatedFramesParse) {
  std::vector<SseFrame> frames;
  const std::string wire = "id: 3\r\nevent: e\r\ndata: hi\r\n\r\n";
  EXPECT_EQ(sse_parse(wire, &frames), wire.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].id, 3u);
  EXPECT_EQ(frames[0].data, "hi");
}

// ---- LiveFeed --------------------------------------------------------------

TEST(LiveFeed, SnapshotDoubleBufferLatestWins) {
  LiveFeed feed;
  EXPECT_EQ(feed.snapshot().seq, 0u);

  MetricsSnapshot snap;
  snap.seq = 4;
  feed.publish_snapshot(snap);
  snap.seq = 9;
  feed.publish_snapshot(snap);
  EXPECT_EQ(feed.snapshot().seq, 9u);
}

TEST(LiveFeed, EventsReplayFromAnyHeldCursor) {
  LiveFeed feed;
  EXPECT_EQ(feed.publish_event("a", "1"), 1u);
  EXPECT_EQ(feed.publish_event("b", "2"), 2u);
  EXPECT_EQ(feed.publish_event("c", "3"), 3u);

  uint64_t cursor = 0;
  std::string out;
  EXPECT_TRUE(feed.next_events(&cursor, &out, 0));
  EXPECT_EQ(cursor, 3u);
  std::vector<SseFrame> frames;
  EXPECT_EQ(sse_parse(out, &frames), out.size());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[1].event, "b");

  // A mid-stream cursor only gets the tail.
  cursor = 2;
  out.clear();
  EXPECT_TRUE(feed.next_events(&cursor, &out, 0));
  frames.clear();
  sse_parse(out, &frames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].event, "c");
}

TEST(LiveFeed, BoundedRingEvictsOldestFramesAndAnnouncesTheGap) {
  LiveFeed feed(/*ring_capacity=*/2);
  feed.publish_event("a", "1");
  feed.publish_event("b", "2");
  feed.publish_event("c", "3");

  // Frame "a" was evicted before this consumer drained: it must see a
  // resync frame marking the gap, then the surviving tail.
  uint64_t cursor = 0;
  std::string out;
  feed.next_events(&cursor, &out, 0);
  std::vector<SseFrame> frames;
  sse_parse(out, &frames);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].event, "resync");
  EXPECT_EQ(frames[0].id, 1u);  // the last evicted id: replay is gapless
  EXPECT_EQ(frames[1].event, "b");
  EXPECT_EQ(frames[2].event, "c");
  EXPECT_EQ(feed.events_published(), 3u);
}

TEST(LiveFeed, SlowConsumerCursorWraparoundResyncs) {
  LiveFeed feed(/*ring_capacity=*/4);
  // Give the resync frame a real snapshot to carry.
  MetricsRegistry reg;
  reg.counter("pkts").inc(7);
  MetricsSnapshotter snap(&reg);
  snap.capture();
  feed.publish_snapshot(snap.current());

  // The consumer drains the first two events, stalls, and the ring laps it.
  feed.publish_event("e1", "{}");
  feed.publish_event("e2", "{}");
  uint64_t cursor = 0;
  std::string out;
  ASSERT_TRUE(feed.next_events(&cursor, &out, 0));
  EXPECT_EQ(cursor, 2u);
  for (int i = 3; i <= 10; ++i) feed.publish_event(event_name(i), "{}");

  // Events 3..6 are gone (ring holds 7..10): one resync frame carrying
  // the latest full snapshot, then gapless replay of the survivors.
  out.clear();
  ASSERT_TRUE(feed.next_events(&cursor, &out, 0));
  std::vector<SseFrame> frames;
  sse_parse(out, &frames);
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0].event, "resync");
  EXPECT_EQ(frames[0].id, 6u);
  EXPECT_NE(frames[0].data.find("\"pkts\""), std::string::npos);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(frames[i].event, event_name(6 + i));
    EXPECT_EQ(frames[i].id, static_cast<uint64_t>(6 + i));
  }
  EXPECT_EQ(cursor, 10u);

  // Once resynced, the consumer is a normal tail reader again: no second
  // resync frame on the next drain.
  feed.publish_event("e11", "{}");
  out.clear();
  ASSERT_TRUE(feed.next_events(&cursor, &out, 0));
  frames.clear();
  sse_parse(out, &frames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].event, "e11");
}

TEST(LiveFeed, UpToDateConsumerNeverSeesResync) {
  LiveFeed feed(/*ring_capacity=*/2);
  feed.publish_event("a", "1");
  uint64_t cursor = 0;
  std::string out;
  ASSERT_TRUE(feed.next_events(&cursor, &out, 0));
  // Keep pace with the publisher across several evictions.
  for (int i = 2; i <= 9; ++i) {
    feed.publish_event(event_name(i), "{}");
    out.clear();
    ASSERT_TRUE(feed.next_events(&cursor, &out, 0));
    EXPECT_EQ(out.find("resync"), std::string::npos);
  }
  EXPECT_EQ(cursor, 9u);
}

TEST(LiveFeed, CloseDrainsThenTerminates) {
  LiveFeed feed;
  feed.publish_event("a", "1");
  feed.close();
  EXPECT_TRUE(feed.closed());
  // Publishing after close is a no-op.
  EXPECT_EQ(feed.publish_event("b", "2"), 0u);

  uint64_t cursor = 0;
  std::string out;
  // The backlog still drains…
  EXPECT_TRUE(feed.next_events(&cursor, &out, 0));
  EXPECT_EQ(cursor, 1u);
  EXPECT_NE(out.find("event: a"), std::string::npos);
  // …and only then does the stream report termination.
  out.clear();
  EXPECT_FALSE(feed.next_events(&cursor, &out, 0));
  EXPECT_TRUE(out.empty());
}

TEST(LiveFeed, PublisherAndConsumerOnSeparateThreads) {
  LiveFeed feed;
  constexpr int kEvents = 200;
  std::thread producer([&feed] {
    for (int i = 0; i < kEvents; ++i) {
      feed.publish_event("tick", std::to_string(i));
    }
    feed.close();
  });

  uint64_t cursor = 0;
  std::vector<SseFrame> frames;
  std::string out;
  while (feed.next_events(&cursor, &out, 50)) {
    sse_parse(out, &frames);
    out.clear();
  }
  sse_parse(out, &frames);
  producer.join();
  ASSERT_EQ(frames.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(frames[static_cast<size_t>(i)].data, std::to_string(i));
  }
}

// ---- HTTP server over real sockets -----------------------------------------

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HttpSseServer>(&feed_);
    server_->set_index_html("<html><body>qa_live test</body></html>");
    server_->handle("/custom", [](const std::string& query) {
      HttpResponse resp;
      resp.body = "query=[" + query + "]";
      return resp;
    });
    ASSERT_TRUE(server_->start(0));
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    feed_.close();
    server_->stop();
  }

  LiveFeed feed_;
  std::unique_ptr<HttpSseServer> server_;
};

TEST_F(HttpServerTest, ServesMetricsSnapshotAndDelta) {
  MetricsRegistry reg;
  reg.counter("x.count").inc(3);
  MetricsSnapshotter snap(&reg);
  snap.capture();
  reg.counter("x.count").inc();
  reg.counter("y.count");
  feed_.publish_snapshot(snap.capture());

  std::string body;
  ASSERT_TRUE(http_get(server_->port(), "/metrics", &body));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(body, &doc, &error)) << error;
  EXPECT_DOUBLE_EQ(doc.find("seq")->number, 2.0);
  EXPECT_EQ(doc.find("metrics")->object.size(), 2u);

  // The delta endpoint restricts to rows changed after the cursor; both
  // rows moved at capture 2 here, so since=2 must be empty.
  body.clear();
  ASSERT_TRUE(http_get(server_->port(), "/metrics?since=2", &body));
  ASSERT_TRUE(json_parse(body, &doc, &error)) << error;
  EXPECT_DOUBLE_EQ(doc.find("since")->number, 2.0);
  EXPECT_TRUE(doc.find("metrics")->object.empty());
}

TEST_F(HttpServerTest, ServesIndexCustomHandlerAnd404) {
  std::string body;
  std::string status;
  ASSERT_TRUE(http_get(server_->port(), "/", &body, &status));
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("<html"), std::string::npos);

  body.clear();
  ASSERT_TRUE(http_get(server_->port(), "/custom?a=1", &body));
  EXPECT_EQ(body, "query=[a=1]");

  body.clear();
  status.clear();
  ASSERT_TRUE(http_get(server_->port(), "/missing", &body, &status));
  EXPECT_NE(status.find("404"), std::string::npos);
}

TEST_F(HttpServerTest, StreamsEventsOverSse) {
  feed_.publish_event("note", "{\"kind\": \"backoff\"}");
  feed_.publish_event("metrics", "{\"seq\": 1}");

  std::vector<SseFrame> frames;
  ASSERT_TRUE(sse_read(server_->port(), "/events", 2, 5000, &frames));
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[0].event, "note");
  EXPECT_EQ(frames[0].id, 1u);
  EXPECT_EQ(frames[1].event, "metrics");
  EXPECT_EQ(frames[1].data, "{\"seq\": 1}");
}

TEST_F(HttpServerTest, AdversarialMetricNamesSurviveTheFullPipeline) {
  MetricsRegistry reg;
  const std::vector<std::string> names = {
      "quote\"name", "back\\slash", "multi\nline", "unicode.\xE2\x82\xAC",
      "ctrl.\x02"};
  for (const auto& n : names) reg.counter(n).inc();
  MetricsSnapshotter snap(&reg);
  const MetricsSnapshot& s = snap.capture();

  // Publish the canonical delta JSON exactly as the LiveHub does.
  feed_.publish_snapshot(s);
  feed_.publish_event("metrics", s.to_json(0));

  std::vector<SseFrame> frames;
  ASSERT_TRUE(sse_read(server_->port(), "/events", 1, 5000, &frames));
  ASSERT_GE(frames.size(), 1u);
  ASSERT_EQ(frames[0].event, "metrics");

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(frames[0].data, &doc, &error)) << error;
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const auto& n : names) {
    EXPECT_NE(metrics->find(n), nullptr) << "lost metric '" << n << "'";
  }

  // The plain snapshot endpoint serves the same names.
  std::string body;
  ASSERT_TRUE(http_get(server_->port(), "/metrics", &body));
  ASSERT_TRUE(json_parse(body, &doc, &error)) << error;
  for (const auto& n : names) {
    EXPECT_NE(doc.find("metrics")->find(n), nullptr);
  }
}

TEST(HttpServer, StopWhileClientStreamingDoesNotHang) {
  LiveFeed feed;
  HttpSseServer server(&feed);
  ASSERT_TRUE(server.start(0));
  feed.publish_event("a", "1");

  std::vector<SseFrame> frames;
  std::thread client([&] {
    // Asks for more frames than will ever arrive; must return when the
    // server tears the connection down.
    sse_read(server.port(), "/events", 100, 10000, &frames);
  });
  // Give the client a moment to connect and drain the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  feed.close();
  server.stop();
  client.join();
  EXPECT_GE(frames.size(), 1u);
}

}  // namespace
}  // namespace qa
