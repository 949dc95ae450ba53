// qa_chaos — seeded chaos sweep over randomized fault schedules.
//
// Runs run_chaos_trial for a range of seeds and prints a per-seed outcome
// table plus a summary; exits 1 when any seed fails its acceptance check
// (recovered within bound, non-negative buffers, packets flowing after the
// faults cleared), and 2 on a bad flag. See EXPERIMENTS.md for the schedule
// format and the recovery-time metric.
//
//   qa_chaos                         # 50 seeds, default schedule
//   qa_chaos --seeds 200 --faults 8
//   qa_chaos --first-seed 1000 --seeds 20 --recovery-bound 15
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/chaos.h"
#include "app/tool_flags.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/manifest.h"

using namespace qa;
using namespace qa::app;

namespace {

constexpr int kDefaultSeeds = 50;

void usage() {
  std::printf("qa_chaos [flags]\n%s",
              chaos_flags_usage(ChaosParams{}, kDefaultSeeds).c_str());
  std::printf(
      "  --verbose              per-seed rows even when passing\n"
      "  --out-dir DIR          write chaos.csv (per-seed outcomes) and\n"
      "                         manifest.json (invocation record) to DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  ChaosParams base;
  int seeds = kDefaultSeeds;
  try {
    read_chaos_flags(flags, &base, &seeds);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "qa_chaos: %s\n", e.what());
    usage();
    return kUsageExitStatus;
  }
  const uint64_t first_seed = base.seed;
  const bool verbose = flags.get_bool("verbose", false);
  const std::string out_dir = flags.get_or("out-dir", "");
  exit_on_unknown_flags(flags, usage);

  std::unique_ptr<CsvWriter> csv;
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    RunManifest manifest;
    manifest.set("tool", "qa_chaos");
    manifest.set_args(argc, argv);
    manifest.set_int("seeds", seeds);
    manifest.set_int("first_seed", static_cast<int64_t>(first_seed));
    manifest.set_int("faults", base.faults);
    manifest.set_number("recovery_bound", base.recovery_bound.sec());
    manifest.set_number("bottleneck_bytes_per_sec", base.bottleneck.bps());
    manifest.write_json(out_dir + "/manifest.json");
    csv = std::make_unique<CsvWriter>(
        out_dir + "/chaos.csv",
        std::vector<std::string>{"seed", "ok", "pre_fault_layers",
                                 "recovery_time", "rebuffer_events",
                                 "rebuffer_time", "quiescence_entries",
                                 "degraded_entries", "outage_drops",
                                 "packets_received_tail", "final_rate"});
  }

  std::printf("chaos sweep: %d seeds from %llu, %d faults over %.0f s, "
              "recovery bound %.0f s\n",
              seeds, static_cast<unsigned long long>(first_seed), base.faults,
              base.fault_window.sec(), base.recovery_bound.sec());
  std::printf("%6s %5s %5s %9s %7s %8s %6s %6s %7s %7s  %s\n", "seed", "pre",
              "rec_s", "rebuf", "paus_s", "quiesc", "degr", "outage",
              "tail_rx", "rate", "status");

  int failures = 0;
  TimeDelta worst_recovery = TimeDelta::zero();
  int64_t total_rebuffers = 0;
  for (int i = 0; i < seeds; ++i) {
    ChaosParams params = base;
    params.seed = first_seed + static_cast<uint64_t>(i);
    const ChaosOutcome out = run_chaos_trial(params);
    const bool ok = out.ok(params);
    if (!ok) ++failures;
    worst_recovery = std::max(worst_recovery, out.recovery_time);
    total_rebuffers += out.rebuffer_events;
    if (csv) {
      csv->row({static_cast<double>(params.seed), ok ? 1.0 : 0.0,
                static_cast<double>(out.pre_fault_layers),
                out.recovery_time.sec(),
                static_cast<double>(out.rebuffer_events),
                out.rebuffer_time.sec(),
                static_cast<double>(out.quiescence_entries),
                static_cast<double>(out.degraded_entries),
                static_cast<double>(out.outage_drops),
                static_cast<double>(out.packets_received_tail),
                out.final_rate_bps});
    }
    if (!ok || verbose) {
      std::printf("%6llu %5d %5.1f %9lld %7.2f %8lld %6lld %6lld %7lld "
                  "%7.0f  %s\n",
                  static_cast<unsigned long long>(params.seed),
                  out.pre_fault_layers, out.recovery_time.sec(),
                  static_cast<long long>(out.rebuffer_events),
                  out.rebuffer_time.sec(),
                  static_cast<long long>(out.quiescence_entries),
                  static_cast<long long>(out.degraded_entries),
                  static_cast<long long>(out.outage_drops),
                  static_cast<long long>(out.packets_received_tail),
                  out.final_rate_bps, ok ? "ok" : "FAIL");
    }
  }

  std::printf("\n%d/%d seeds passed; worst recovery %.1f s; "
              "%lld rebuffer events total\n",
              seeds - failures, seeds, worst_recovery.sec(),
              static_cast<long long>(total_rebuffers));
  return failures == 0 ? 0 : 1;
}
