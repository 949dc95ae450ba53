// qa_farm — server-farm scenario runner: N concurrent quality-adaptive
// sessions over a shared bottleneck with Poisson churn, quality-aware
// admission control, and the overload load-shedding ladder.
//
//   qa_farm                             # smoke preset (16 slots, 60 s)
//   qa_farm --preset churn500           # 500-session churn run
//   qa_farm --preset overload           # offered load >> capacity
//   qa_farm --no-admission --no-ladder  # uncontrolled baseline
//   qa_farm --out-dir DIR --print-digest
//
// Artifacts in --out-dir: farm.csv (aggregate time series), metrics.csv /
// metrics.json (folded per-session histograms + farm counters), and
// manifest.json. --print-digest prints the canonical run digest; two runs
// with the same seed and parameters print the same value.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>

#include "app/farm.h"
#include "app/tool_flags.h"
#include "util/chrome_trace.h"
#include "util/flags.h"
#include "util/flightrec.h"
#include "util/manifest.h"
#include "util/metrics_registry.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_farm [flags]\n"
      "%s"
      "  --print-digest         print the canonical run digest\n"
      "  --trace                also write trace.json (admission verdicts,\n"
      "                         shed-ladder rung, farm counter tracks)\n"
      "  --flightrec-events N   flight-recorder ring size (default 1024)\n"
      "  --no-flightrec         skip the crash-time flight recorder\n"
      "  --out-dir DIR          write farm.csv, metrics.{csv,json}, "
      "manifest.json\n",
      farm_flags_usage(FarmParams::preset("smoke")).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  FarmParams p = FarmParams::preset("smoke");
  FlightRecFlags fr;
  try {
    read_farm_flags(flags, &p);
    fr = flightrec_flags(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_farm: %s\n", e.what());
    return kUsageExitStatus;
  }
  const bool print_digest = flags.get_bool("print-digest", false);
  const bool want_trace = flags.get_bool("trace", false);
  const std::string out_dir = flags.get_or("out-dir", "");
  exit_on_unknown_flags(flags, usage);

  MetricsRegistry registry;
  std::unique_ptr<FlightRecorder> flightrec;
  std::unique_ptr<ChromeTraceWriter> trace;
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    p.registry = &registry;
    if (fr.enabled) {
      flightrec = std::make_unique<FlightRecorder>(fr.events);
      flightrec->arm_crash_dump(out_dir + "/flightrec.jsonl");
      p.flightrec = flightrec.get();
    }
    if (want_trace) {
      trace = std::make_unique<ChromeTraceWriter>(out_dir + "/trace.json");
      p.trace = trace.get();
    }
  }

  const FarmResult r = run_farm(p);

  // A run that finished cleanly needs no crash dump; the trace is complete.
  if (flightrec) flightrec->disarm();
  if (trace) trace->close();

  std::printf(
      "farm: %lld arrivals -> %lld admitted (%lld base-only), %lld rejected "
      "(%lld capacity), %lld retries\n",
      static_cast<long long>(r.arrivals), static_cast<long long>(r.admitted),
      static_cast<long long>(r.admitted_base_only),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.rejected_capacity),
      static_cast<long long>(r.retries));
  std::printf(
      "      %lld departures, %lld shed, peak %d active (mean %.1f), "
      "max shed level %d, %lld oscillations\n",
      static_cast<long long>(r.departures), static_cast<long long>(r.shed),
      r.peak_active, r.mean_active, r.max_shed_level,
      static_cast<long long>(r.oscillation_events));
  std::printf(
      "      rebuffer rate %.4f (%.1f s over %.1f session-s), "
      "mean Jain %.3f, mean layers %.2f\n",
      r.aggregate_rebuffer_rate, r.total_rebuffer_sec, r.session_seconds,
      r.mean_jain, r.mean_layers);

  if (!out_dir.empty()) {
    write_farm_series_csv(r, out_dir + "/farm.csv");
    registry.write_csv(out_dir + "/metrics.csv");
    registry.write_json(out_dir + "/metrics.json");
    RunManifest manifest;
    manifest.set("tool", "qa_farm");
    manifest.set_args(argc, argv);
    manifest.set_int("seed", static_cast<int64_t>(p.seed));
    manifest.set_int("slots", p.slots);
    manifest.set_number("duration_s", p.duration.sec());
    manifest.set_number("bottleneck_bytes_per_sec", p.bottleneck_bw.bps());
    manifest.set_int("admission_enabled", p.admission_enabled ? 1 : 0);
    manifest.set_int("ladder_enabled", p.ladder_enabled ? 1 : 0);
    manifest.set_int("arrivals", r.arrivals);
    manifest.set_int("oscillation_events", r.oscillation_events);
    if (flightrec) {
      manifest.set("flightrec_path", out_dir + "/flightrec.jsonl");
      manifest.set_int("flightrec_events", static_cast<int64_t>(fr.events));
    }
    if (trace) manifest.set("trace_path", out_dir + "/trace.json");
    manifest.write_json(out_dir + "/manifest.json");
  }
  if (print_digest) {
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(farm_digest(r)));
  }
  return 0;
}
