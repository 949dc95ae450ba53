// End-to-end artifact round trip: run a small fig-2 style experiment with
// the observability hub attached, then re-read what it wrote. The trace
// checker walks every line of the Chrome trace JSON: well-formed event
// objects, pid 1, non-decreasing timestamps, and strictly matched B/E
// spans per track — the properties Perfetto's importer depends on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/observability.h"
#include "util/chrome_trace.h"

namespace qa::app {
namespace {

struct TraceEvent {
  char ph = 0;
  int tid = -1;
  double ts = -1;
};

// Minimal scanner for the writer's one-event-per-line format.
std::vector<TraceEvent> parse_trace(const std::string& path,
                                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return {};
  }
  std::vector<TraceEvent> events;
  std::string line;
  std::getline(in, line);
  if (line != "[") {
    *error = "missing opening bracket";
    return {};
  }
  bool closed = false;
  while (std::getline(in, line)) {
    if (line == "]") {
      closed = true;
      break;
    }
    if (line.size() >= 2 && line.ends_with(","))
      line.pop_back();
    if (!line.starts_with("{\"ph\":\"") || !line.ends_with("}")) {
      *error = "malformed event line: " + line;
      return {};
    }
    TraceEvent e;
    e.ph = line[7];
    if (line.find("\"pid\":1,") == std::string::npos) {
      *error = "bad pid: " + line;
      return {};
    }
    const size_t tid_at = line.find("\"tid\":");
    const size_t ts_at = line.find("\"ts\":");
    if (tid_at == std::string::npos || ts_at == std::string::npos) {
      *error = "missing tid/ts: " + line;
      return {};
    }
    e.tid = std::stoi(line.substr(tid_at + 6));
    e.ts = std::stod(line.substr(ts_at + 5));
    events.push_back(e);
  }
  if (!closed) *error = "missing closing bracket";
  return events;
}

std::string slurp(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  return ss.str();
}

class TraceExportTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "/qa_trace_export_test";

  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(TraceExportTest, Fig2StyleRunProducesValidArtifactBundle) {
  ObservabilityConfig cfg;
  cfg.out_dir = dir_;
  Observability obs(cfg);
  obs.manifest().set("tool", "app_trace_export_test");

  ExperimentParams params;
  params.rap_flows = 1;
  params.tcp_flows = 0;
  params.duration_sec = 5;
  params.bottleneck = Rate::kilobits_per_sec(240);
  params.layer_rate = Rate::bytes_per_sec(10'000);
  params.stream_layers = 4;
  params.kmax = 1;
  obs.manifest().set_int("seed", static_cast<int64_t>(params.seed));
  params.observability = &obs;

  const ExperimentResult result = run_experiment(params);
  EXPECT_GT(result.qa_packets_sent, 0);
  EXPECT_TRUE(obs.finished());  // run_experiment flushed the bundle
  EXPECT_EQ(obs.trace(), nullptr);

  // --- Trace: parse every line, check Perfetto's structural invariants. ---
  std::string error;
  const auto events = parse_trace(dir_ + "/trace.json", &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_FALSE(events.empty());

  double last_ts = 0;
  std::map<int, int> depth;  // per-track open B spans
  int spans = 0;
  int instants = 0;
  int counters = 0;
  for (const TraceEvent& e : events) {
    ASSERT_TRUE(e.ph == 'M' || e.ph == 'B' || e.ph == 'E' || e.ph == 'i' ||
                e.ph == 'C')
        << e.ph;
    if (e.ph == 'M') continue;
    EXPECT_GE(e.ts, last_ts);  // emission follows sim time
    last_ts = e.ts;
    if (e.ph == 'B') {
      ++depth[e.tid];
      ++spans;
    } else if (e.ph == 'E') {
      ASSERT_GT(depth[e.tid], 0) << "E without open B on track " << e.tid;
      --depth[e.tid];
    } else if (e.ph == 'i') {
      ++instants;
    } else {
      ++counters;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on track " << tid;
  }
  EXPECT_GT(spans, 0);     // scheduler handler spans
  EXPECT_GT(counters, 0);  // rate / buffer / queue tracks

  // --- Journey lanes: per-layer tracks carry lifecycle instants. ----------
  int journey_instants = 0;
  for (const TraceEvent& e : events) {
    if (e.ph == 'i' && e.tid >= ChromeTraceWriter::kJourneyTrackBase) {
      ++journey_instants;
    }
  }
  EXPECT_GT(journey_instants, 0);
  const std::string raw_trace = slurp(dir_ + "/trace.json");
  EXPECT_NE(raw_trace.find("video layer 0"), std::string::npos);
  EXPECT_NE(raw_trace.find("\"deliver\""), std::string::npos);

  // --- Metrics: both exports exist and carry cross-subsystem rows. --------
  const std::string csv = slurp(dir_ + "/metrics.csv");
  EXPECT_NE(csv.find("adapter.drops"), std::string::npos);
  EXPECT_NE(csv.find("link.bottleneck.tx_packets"), std::string::npos);
  EXPECT_NE(csv.find("rap.rate_changes"), std::string::npos);
  EXPECT_NE(csv.find("client.rebuffer.count"), std::string::npos);
  EXPECT_NE(csv.find("scheduler.transport.dispatches"), std::string::npos);
  // Per-layer journey aggregates (OWD percentiles ride the histogram
  // columns) and lifecycle counters.
  EXPECT_NE(csv.find("journey.layer0.owd_ms"), std::string::npos);
  EXPECT_NE(csv.find("journey.started"), std::string::npos);
  EXPECT_NE(csv.find("journey.delivered"), std::string::npos);
  EXPECT_NE(csv.find("journey.queue_wait_ms"), std::string::npos);
  const std::string js = slurp(dir_ + "/metrics.json");
  EXPECT_NE(js.find("\"link.bottleneck.tx_packets\""), std::string::npos);
  EXPECT_NE(js.find("\"journey.layer0.owd_ms\""), std::string::npos);
  EXPECT_NE(js.find("\"journey.acked\""), std::string::npos);

  // --- Manifest: provenance keys survive to disk. -------------------------
  const std::string manifest = slurp(dir_ + "/manifest.json");
  EXPECT_NE(manifest.find("\"tool\": \"app_trace_export_test\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"seed\": 1"), std::string::npos);

  // --- Profiler survives finish() for post-run reporting. -----------------
  EXPECT_GT(obs.profiler().total_dispatches(), 0u);
  EXPECT_GT(obs.profiler()
                .stats(sim::EventCategory::kTransport)
                .dispatches,
            0u);
  const std::string report = obs.profiler().report();
  EXPECT_NE(report.find("transport"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

// Control runs before observation: when a backoff makes the adapter drop a
// layer, the adapter's layer_drop instant is written before the transport's
// backoff instant at the same sim time.
TEST_F(TraceExportTest, LayerDropPrecedesTheBackoffThatCausedIt) {
  ObservabilityConfig cfg;
  cfg.out_dir = dir_;
  cfg.journeys = false;
  Observability obs(cfg);

  ExperimentParams params;
  params.rap_flows = 1;
  params.tcp_flows = 0;
  params.duration_sec = 20;
  params.bottleneck = Rate::kilobits_per_sec(240);
  params.layer_rate = Rate::bytes_per_sec(10'000);
  params.stream_layers = 4;
  params.kmax = 1;
  params.observability = &obs;
  run_experiment(params);

  // The line of the first layer_drop and of the first backoff instant at
  // each "ts" text.
  std::map<std::string, int> drop_line;
  std::map<std::string, int> backoff_line;
  std::ifstream in(dir_ + "/trace.json");
  int n = 0;
  for (std::string line; std::getline(in, line); ++n) {
    std::map<std::string, int>* first = nullptr;
    if (line.find("\"name\":\"layer_drop\"") != std::string::npos) {
      first = &drop_line;
    } else if (line.find("\"name\":\"backoff\"") != std::string::npos) {
      first = &backoff_line;
    } else {
      continue;
    }
    const size_t at = line.find("\"ts\":") + 5;
    first->emplace(line.substr(at, line.find(',', at) - at), n);
  }
  int paired = 0;
  for (const auto& [ts, backoff] : backoff_line) {
    const auto drop = drop_line.find(ts);
    if (drop == drop_line.end()) continue;
    ++paired;
    EXPECT_LT(drop->second, backoff) << "layer_drop after backoff at " << ts;
  }
  EXPECT_GT(paired, 0) << "no backoff dropped a layer; nothing was checked";
}

TEST_F(TraceExportTest, DisabledTraceStillExportsMetricsAndManifest) {
  ObservabilityConfig cfg;
  cfg.out_dir = dir_;
  cfg.trace = false;
  Observability obs(cfg);
  EXPECT_EQ(obs.trace(), nullptr);

  ExperimentParams params;
  params.rap_flows = 1;
  params.tcp_flows = 0;
  params.duration_sec = 2;
  params.stream_layers = 2;
  params.observability = &obs;
  run_experiment(params);

  EXPECT_FALSE(std::filesystem::exists(dir_ + "/trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/metrics.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/manifest.json"));
}

TEST_F(TraceExportTest, FinishIsIdempotent) {
  ObservabilityConfig cfg;
  cfg.out_dir = dir_;
  Observability obs(cfg);
  obs.finish();
  EXPECT_TRUE(obs.finished());
  obs.finish();  // second call is a no-op, not a double-write
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/manifest.json"));
}

}  // namespace
}  // namespace qa::app
