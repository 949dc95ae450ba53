// qa_trace — run a streaming scenario with full observability and write
// the artifact bundle: a Perfetto-loadable Chrome trace, a metrics
// snapshot (CSV + JSON), and a provenance manifest.
//
// The default scenario is ExperimentParams::fig2(): a single quality-
// adaptive flow on a small dumbbell, a lone RAP source against a
// bottleneck a few layers wide, so the trace shows clean AIMD sawtooths,
// layer adds/drops, and buffer accumulation without competing-flow noise.
// Every scenario flag of app/tool_flags applies; crank
// --rap-flows/--tcp-flows up for a contended fig-11 style run.
//
//   qa_trace --out-dir /tmp/qa_run
//   qa_trace --out-dir /tmp/qa_run --duration-s 60 --kmax 2 --seed 7
//   qa_trace --out-dir /tmp/qa_run --rap-flows 10 --tcp-flows 10
//   qa_trace --out-dir /tmp/qa_run --allocation equal-share --red
//
// Load <out-dir>/trace.json at ui.perfetto.dev (or chrome://tracing); see
// EXPERIMENTS.md for the lane layout and a reading guide.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "app/experiment.h"
#include "app/observability.h"
#include "app/tool_flags.h"
#include "util/flags.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_trace [flags]\n"
      "  --out-dir DIR          artifact directory (required; created)\n"
      "%s%s",
      experiment_flags_usage(ExperimentParams::fig2()).c_str(),
      observability_flags_usage());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  const std::string out_dir = flags.get_or("out-dir", "");
  ExperimentParams params = ExperimentParams::fig2();
  ObservabilityConfig ocfg;
  try {
    read_experiment_flags(flags, &params);
    ocfg = observability_flags(flags, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_trace: %s\n", e.what());
    return kUsageExitStatus;
  }
  exit_on_unknown_flags(flags, usage);
  if (out_dir.empty()) {
    std::fprintf(stderr, "qa_trace: --out-dir is required\n");
    usage();
    return kUsageExitStatus;
  }

  try {
    std::filesystem::create_directories(out_dir);

    Observability obs(ocfg);
    obs.manifest().set("tool", "qa_trace");
    obs.manifest().set_args(argc, argv);
    obs.manifest().set_int("seed", static_cast<int64_t>(params.seed));
    obs.manifest().set_number("duration", params.duration_sec);
    obs.manifest().set_number("bottleneck_bytes_per_sec",
                              params.bottleneck.bps());
    obs.manifest().set_number("layer_rate_bytes_per_sec",
                              params.layer_rate.bps());
    obs.manifest().set_int("stream_layers", params.stream_layers);
    obs.manifest().set_int("kmax", params.kmax);
    obs.manifest().set_int("rap_flows", params.rap_flows);
    obs.manifest().set_int("tcp_flows", params.tcp_flows);
    obs.manifest().set("backend", cc::to_string(params.backend));
    params.observability = &obs;

    const ExperimentResult result = run_experiment(params);

    std::printf("run: %.0f s sim, %lld QA packets, %lld losses, "
                "%d drops / %d adds, stall %.2f s\n",
                params.duration_sec,
                static_cast<long long>(result.qa_packets_sent),
                static_cast<long long>(result.qa_losses),
                static_cast<int>(result.metrics.drops().size()),
                static_cast<int>(result.metrics.adds().size()),
                result.client_base_stall.sec());
    std::printf("artifacts in %s: trace.json metrics.csv metrics.json "
                "manifest.json\n\n", out_dir.c_str());
    std::printf("%s", obs.profiler().report().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_trace: %s\n", e.what());
    return 1;
  }
}
