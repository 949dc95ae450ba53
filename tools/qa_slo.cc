// qa_slo — SLO gate: run a scenario (or replay a recorded one) under a
// declarative SLO spec and exit nonzero when any burn-rate alert opened.
//
//   qa_slo --preset churn500 --out-dir DIR        # farm scenario, must pass
//   qa_slo --preset overload --no-admission --no-ladder --out-dir DIR
//                                                 # uncontrolled overload: breaches
//   qa_slo --scenario fig2 --out-dir DIR          # single-flow paper scenario
//   qa_slo --spec slo.json --preset smoke         # custom objectives
//   qa_slo --eval DIR --out-dir DIR2              # offline replay of DIR
//
// The run modes drive a TimeSeriesRecorder + SloEngine on the scenario's
// own deterministic sim-time grid (the farm's sample_dt ticks, or the
// observability cadence for fig2), so two same-seed invocations write
// byte-identical alerts.json — CI diffs them and qa_diff gates slo.json.
//
// --eval DIR re-evaluates an existing artifact directory offline: it
// injects DIR/timeseries.json back into a fresh recorder, reconstructs
// the original evaluation grid from DIR/manifest.json
// (obs_sample_cadence_ns) and DIR/alerts.json (evaluations), and replays
// the engine over it — the replayed timeline digest equals the live one.
//
// Artifacts in --out-dir: alerts.json (typed transition timeline),
// slo.json (qa_diff-gatable counters incl. the timeline digest),
// slo_spec.json (the objectives used, replay input), timeseries.{csv,json},
// breach_report.txt, manifest.json.
//
// Exit codes (qa_diff convention): 0 within SLO, 1 breached, 2 error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "app/farm.h"
#include "app/observability.h"
#include "app/tool_flags.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/manifest.h"
#include "util/metrics_registry.h"
#include "util/slo.h"
#include "util/timeseries.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_slo [flags]\n"
      "  --scenario NAME        farm | fig2 (default farm)\n"
      "  --spec FILE            SLO spec JSON (default: built-in per-scenario\n"
      "                         objectives)\n"
      "  --eval DIR             replay DIR's timeseries.json offline instead\n"
      "                         of running a scenario (grid + objectives are\n"
      "                         reconstructed from DIR's artifacts)\n"
      "  --select LIST          extra recorder selectors, comma-separated\n"
      "                         (objective series are always recorded)\n"
      "  --out-dir DIR          write alerts.json slo.json slo_spec.json\n"
      "                         timeseries.{csv,json} breach_report.txt\n"
      "                         manifest.json\n"
      "  --print-digest         print the alert timeline digest\n"
      "  exit: 0 within SLO, 1 breached, 2 error\n"
      "  Farm scenario (the flags of qa_farm):\n"
      "%s"
      "  fig2 scenario (the flags of qa_trace):\n"
      "%s"
      "  --cadence-s SECS       evaluation cadence (default 0.1)\n",
      farm_flags_usage(FarmParams::preset("smoke")).c_str(),
      experiment_flags_usage(ExperimentParams::fig2()).c_str());
}

// Built-in objectives. The farm spec is calibrated against the qa_farm
// presets: churn500 (admission + ladder on) stays within SLO; overload
// with the control loops disabled breaches — that contrast is the CI
// gate. fig2 is the paper's clean single-flow scenario and must pass.
constexpr char kFarmSpec[] =
    "{\"objectives\": [\n"
    "  {\"name\": \"rebuffer_burn\", \"series\": \"farm.rebuffer_frac\",\n"
    "   \"signal\": \"mean\", \"cmp\": \"<\", \"threshold\": 0.25,\n"
    "   \"fast_window_s\": 5, \"slow_window_s\": 30},\n"
    "  {\"name\": \"standing_queue\", \"series\": \"farm.queue_frac\",\n"
    "   \"signal\": \"mean\", \"cmp\": \"<\", \"threshold\": 0.93,\n"
    "   \"fast_window_s\": 10, \"slow_window_s\": 90}\n"
    "]}\n";

constexpr char kFig2Spec[] =
    "{\"objectives\": [\n"
    "  {\"name\": \"rebuffer_ratio\", \"series\": \"client.rebuffer.paused_s\",\n"
    "   \"signal\": \"rate\", \"cmp\": \"<\", \"threshold\": 0.01,\n"
    "   \"fast_window_s\": 5, \"slow_window_s\": 15}\n"
    "]}\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Splits "a,b,c" (empty string -> empty list).
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

struct GateResult {
  bool breached = false;
  uint64_t digest = 0;
};

// Writes the artifact bundle and prints the breach report. `end` is the
// timeline's end time (still-open alerts accrue to it).
GateResult finish_gate(const SloEngine& engine, const TimeSeriesRecorder& rec,
                       TimePoint end, const std::string& spec_text,
                       const std::string& out_dir, RunManifest* manifest) {
  const std::string report = slo_breach_report(engine, end);
  std::fputs(report.c_str(), stdout);
  if (!out_dir.empty()) {
    write_alerts_json(out_dir + "/alerts.json", engine, end);
    write_slo_metrics_json(out_dir + "/slo.json", engine, end);
    write_text_file(out_dir + "/slo_spec.json", spec_text);
    write_text_file(out_dir + "/breach_report.txt", report);
    rec.write_csv(out_dir + "/timeseries.csv");
    rec.write_json(out_dir + "/timeseries.json");
    if (manifest != nullptr) {
      manifest->set_int("slo_evaluations",
                        static_cast<int64_t>(engine.evaluations()));
      manifest->set_int("slo_breached", engine.breached() ? 1 : 0);
      manifest->write_json(out_dir + "/manifest.json");
    }
  }
  return GateResult{engine.breached(), engine.timeline_digest()};
}

GateResult run_farm_mode(FarmParams p,
                         const std::vector<SloObjective>& objectives,
                         const std::vector<std::string>& selectors,
                         const std::string& spec_text,
                         const std::string& out_dir, int argc, char** argv) {
  MetricsRegistry registry;
  p.registry = &registry;

  TimeSeriesRecorder recorder(&registry);
  recorder.select("farm.*");
  for (const auto& obj : objectives) recorder.select(obj.series);
  for (const auto& sel : selectors) recorder.select(sel);

  SloEngine engine(&recorder);
  for (const auto& obj : objectives) engine.add(obj);

  // The farm's own aggregate sample grid (t = i * sample_dt) is the
  // evaluation grid: the hook fires after the farm.* gauges update, so
  // the recorder sees each sample's values at that sample's time.
  p.on_sample = [&](TimePoint t) {
    recorder.sample(t);
    engine.evaluate(t);
  };

  const FarmResult r = run_farm(p);

  std::printf("farm: %lld arrivals, %lld shed, rebuffer rate %.4f, "
              "max shed level %d\n",
              static_cast<long long>(r.arrivals),
              static_cast<long long>(r.shed), r.aggregate_rebuffer_rate,
              r.max_shed_level);

  RunManifest manifest;
  manifest.set("tool", "qa_slo");
  manifest.set_args(argc, argv);
  manifest.set("scenario", "farm");
  manifest.set_int("seed", static_cast<int64_t>(p.seed));
  manifest.set_number("duration_s", p.duration.sec());
  manifest.set_int("obs_sample_cadence_ns", p.sample_dt.ns());
  return finish_gate(engine, recorder, recorder.last_sample_time(), spec_text,
                     out_dir, &manifest);
}

GateResult run_fig2_mode(ExperimentParams params, TimeDelta cadence,
                         const std::vector<SloObjective>& objectives,
                         const std::vector<std::string>& selectors,
                         const std::string& spec_text,
                         const std::string& out_dir, int argc, char** argv) {
  // The recorder starts unbound (the hub's registry doesn't exist before
  // the hub, but the hub's config wants the recorder pointer) and binds
  // right after construction, before anything samples.
  TimeSeriesRecorder recorder(nullptr);
  SloEngine engine(&recorder);
  for (const auto& obj : objectives) engine.add(obj);

  ObservabilityConfig ocfg;
  ocfg.out_dir = out_dir;  // empty: evaluation only, no artifacts
  ocfg.trace = false;
  ocfg.profile = false;
  ocfg.journeys = false;
  ocfg.recorder = &recorder;
  ocfg.slo = &engine;
  ocfg.sample_cadence = cadence;

  Observability obs(ocfg);
  recorder.bind(&obs.registry());
  recorder.select("client.rebuffer.*");
  recorder.select("rap.*");
  for (const auto& obj : objectives) recorder.select(obj.series);
  for (const auto& sel : selectors) recorder.select(sel);

  obs.manifest().set("tool", "qa_slo");
  obs.manifest().set_args(argc, argv);
  obs.manifest().set("scenario", "fig2");
  obs.manifest().set_int("seed", static_cast<int64_t>(params.seed));
  obs.manifest().set_number("duration_s", params.duration_sec);
  params.observability = &obs;

  const ExperimentResult result = run_experiment(params);
  std::printf("fig2: %lld QA packets, stall %.2f s\n",
              static_cast<long long>(result.qa_packets_sent),
              result.client_base_stall.sec());

  // The hub's finish() (inside run_experiment) already wrote the run's
  // manifest/metrics/timeseries/alerts into out_dir; the gate rewrites
  // the SLO bundle identically and adds slo_spec.json + the report.
  return finish_gate(engine, recorder, recorder.last_sample_time(), spec_text,
                     out_dir, nullptr);
}

GateResult run_eval_mode(std::vector<SloObjective> objs, std::string spec_text,
                         const std::string& eval_dir,
                         const std::string& out_dir, int argc, char** argv) {
  // Objectives: --spec wins; otherwise replay the evaluated run's own
  // spec (slo_spec.json, written by every qa_slo run mode).
  if (objs.empty()) {
    spec_text = read_file(eval_dir + "/slo_spec.json");
    std::string err;
    if (!parse_slo_spec(spec_text, &objs, &err)) {
      throw std::runtime_error(eval_dir + "/slo_spec.json: " + err);
    }
  }

  // Trajectories.
  JsonValue ts;
  std::string err;
  if (!json_parse(read_file(eval_dir + "/timeseries.json"), &ts, &err)) {
    throw std::runtime_error(eval_dir + "/timeseries.json: " + err);
  }
  const JsonValue* series = ts.find("series");
  const JsonValue* last_sample = ts.find("last_sample_s");
  if (series == nullptr || !series->is_object() || last_sample == nullptr) {
    throw std::runtime_error("timeseries.json: missing series/last_sample_s");
  }

  TimeSeriesRecorder recorder(nullptr);
  for (const auto& [name, pts] : series->object) {
    for (const auto& pt : pts.array) {
      recorder.inject(name, TimePoint::from_sec(pt.array.at(0).number),
                      pt.array.at(1).number);
    }
  }

  // Grid reconstruction: cadence from the manifest, tick count from
  // alerts.json. A recorded run evaluates at t = i * cadence for
  // i = 1..evaluations; the extra end-of-run recorder sample is off-grid
  // by design and is deliberately not evaluated (DESIGN.md §16).
  JsonValue manifest;
  if (!json_parse(read_file(eval_dir + "/manifest.json"), &manifest, &err)) {
    throw std::runtime_error(eval_dir + "/manifest.json: " + err);
  }
  const JsonValue* cadence_ns = manifest.find("obs_sample_cadence_ns");
  if (cadence_ns == nullptr || !cadence_ns->is_number() ||
      cadence_ns->number <= 0) {
    throw std::runtime_error("manifest.json: missing obs_sample_cadence_ns");
  }
  const TimeDelta cadence =
      TimeDelta::nanos(static_cast<int64_t>(cadence_ns->number));

  uint64_t ticks = 0;
  const std::string alerts_path = eval_dir + "/alerts.json";
  if (std::filesystem::exists(alerts_path)) {
    JsonValue alerts;
    if (!json_parse(read_file(alerts_path), &alerts, &err)) {
      throw std::runtime_error(alerts_path + ": " + err);
    }
    const JsonValue* evals = alerts.find("evaluations");
    if (evals == nullptr || !evals->is_number()) {
      throw std::runtime_error("alerts.json: missing evaluations");
    }
    ticks = static_cast<uint64_t>(evals->number);
  } else {
    // No prior SLO run: the grid is every whole cadence inside the
    // recorded span.
    const TimePoint end = TimePoint::from_sec(last_sample->number);
    ticks = static_cast<uint64_t>(end.ns() / cadence.ns());
  }

  SloEngine engine(&recorder);
  for (const auto& obj : objs) engine.add(obj);
  for (uint64_t i = 1; i <= ticks; ++i) {
    engine.evaluate(TimePoint::from_ns(static_cast<int64_t>(i) * cadence.ns()));
  }

  std::printf("eval: %s — %llu ticks at %.3f s cadence, %zu series\n",
              eval_dir.c_str(), static_cast<unsigned long long>(ticks),
              cadence.sec(), recorder.series_names().size());

  RunManifest out_manifest;
  out_manifest.set("tool", "qa_slo");
  out_manifest.set_args(argc, argv);
  out_manifest.set("scenario", "eval");
  out_manifest.set("eval_dir", eval_dir);
  out_manifest.set_int("obs_sample_cadence_ns", cadence.ns());
  return finish_gate(engine, recorder, TimePoint::from_sec(last_sample->number),
                     spec_text, out_dir, &out_manifest);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  const std::string scenario = flags.get_or("scenario", "farm");
  const std::string eval_dir = flags.get_or("eval", "");
  const std::string spec_path = flags.get_or("spec", "");
  const std::string out_dir = flags.get_or("out-dir", "");
  const bool print_digest = flags.get_bool("print-digest", false);

  try {
    // Each run mode reads only its own flags, so the typo gate also
    // rejects a flag the chosen mode would ignore (e.g. --slots for fig2).
    FarmParams farm = FarmParams::preset("smoke");
    ExperimentParams fig2 = ExperimentParams::fig2();
    TimeDelta cadence;
    std::vector<std::string> selectors;
    if (eval_dir.empty()) {
      if (scenario == "farm") {
        read_farm_flags(flags, &farm);
      } else if (scenario == "fig2") {
        read_experiment_flags(flags, &fig2);
        cadence = TimeDelta::from_sec(flags.get_double("cadence-s", 0.1));
      } else {
        throw std::invalid_argument(
            invalid_choice("--scenario", scenario, {"farm", "fig2"}));
      }
      selectors = split_list(flags.get_or("select", ""));
    }
    exit_on_unknown_flags(flags, usage, 2);

    // Spec: explicit file > built-in per-scenario defaults. Eval mode
    // without --spec defers to the evaluated dir's own slo_spec.json.
    std::string spec_text;
    std::vector<SloObjective> objectives;
    if (!spec_path.empty()) {
      spec_text = read_file(spec_path);
    } else if (eval_dir.empty()) {
      spec_text = (scenario == "fig2") ? kFig2Spec : kFarmSpec;
    }
    if (!spec_text.empty()) {
      std::string err;
      if (!parse_slo_spec(spec_text, &objectives, &err)) {
        std::fprintf(stderr, "qa_slo: bad spec: %s\n", err.c_str());
        return 2;
      }
    }

    if (!out_dir.empty()) std::filesystem::create_directories(out_dir);

    GateResult gate;
    if (!eval_dir.empty()) {
      gate = run_eval_mode(std::move(objectives), std::move(spec_text),
                           eval_dir, out_dir, argc, argv);
    } else if (scenario == "farm") {
      gate = run_farm_mode(std::move(farm), objectives, selectors, spec_text,
                           out_dir, argc, argv);
    } else {
      gate = run_fig2_mode(std::move(fig2), cadence, objectives, selectors,
                           spec_text, out_dir, argc, argv);
    }

    if (print_digest) {
      std::printf("timeline digest: %016llx\n",
                  static_cast<unsigned long long>(gate.digest));
    }
    return gate.breached ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_slo: %s\n", e.what());
    return 2;
  }
}
