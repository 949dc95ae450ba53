// qa_sweep — parallel experiment sweep runner.
//
// Fans the cartesian product of the axis flags (seed x Kmax x bottleneck
// bandwidth x RTT x wire-loss rate x fault count x backend, over one base
// scenario)
// across a thread pool, one isolated simulation per grid point, and merges
// the per-scenario summaries into sweep.csv / sweep.json / manifest.json.
// Per-job seeds are derived from grid coordinates (SplitMix64), so the
// output is byte-identical for any --jobs value, and the union of the
// --shard i/k runs equals the unsharded run (see DESIGN.md §12).
//
//   qa_sweep --out-dir /tmp/sweep --kmax 1,2,3,4 --seeds 1,2,3 --jobs 8
//   qa_sweep --preset fig12 --out-dir /tmp/fig12
//   qa_sweep --kmax 1,2 --shard 0/2 --print-digest     # CI shard
//
// --bench-json FILE additionally records wall time, scenario throughput,
// and peak RSS in the BENCH_sweep.json shape the CI perf job uploads.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "app/sweep.h"
#include "app/tool_flags.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/json.h"
#include "util/manifest.h"

using namespace qa;
using namespace qa::app;

namespace {

void usage() {
  std::printf(
      "qa_sweep [flags]\n"
      "%s"
      "  --print-digest         print the canonical row digest to stdout\n"
      "  --bench-json FILE      write BENCH_sweep.json-style timing record\n"
      "  --bench-serial         with --bench-json: rerun the grid with\n"
      "                         --jobs 1, verify digest-identical output,\n"
      "                         and record the parallel speedup\n",
      sweep_flags_usage(SweepGrid::preset("")).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }

  SweepGrid grid = SweepGrid::preset("");
  SweepOptions opts;
  try {
    read_sweep_flags(flags, &grid, &opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_sweep: %s\n", e.what());
    return kUsageExitStatus;
  }
  const bool print_digest = flags.get_bool("print-digest", false);
  const std::string bench_json = flags.get_or("bench-json", "");
  const bool bench_serial = flags.get_bool("bench-serial", false);
  exit_on_unknown_flags(flags, usage);

  try {
    if (!opts.out_dir.empty()) {
      std::filesystem::create_directories(opts.out_dir);
    }
    const SweepResult result = run_sweep(grid, opts);

    int failed = 0;
    for (const auto& r : result.rows) {
      if (!r.ok) ++failed;
    }
    std::printf(
        "sweep: %zu/%zu scenarios (shard %d/%d), jobs=%d, %.2f s wall, "
        "%d failed\n",
        result.rows.size(), result.grid_size, opts.shard_index,
        opts.shard_count, result.jobs, result.wall_s, failed);
    if (print_digest) {
      std::printf("digest: %016llx\n",
                  static_cast<unsigned long long>(
                      sweep_digest(result.rows)));
    }

    if (!opts.out_dir.empty()) {
      RunManifest manifest;
      manifest.set("tool", "qa_sweep");
      manifest.set_args(argc, argv);
      manifest.set_int("grid_size", static_cast<int64_t>(result.grid_size));
      manifest.set_int("rows", static_cast<int64_t>(result.rows.size()));
      manifest.set_int("jobs", result.jobs);
      manifest.set_int("shard_index", opts.shard_index);
      manifest.set_int("shard_count", opts.shard_count);
      manifest.set_int("failed", failed);
      manifest.set_number("wall_s", result.wall_s);
      manifest.set("digest", [&] {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          sweep_digest(result.rows)));
        return std::string(buf);
      }());
      manifest.write_json(opts.out_dir + "/manifest.json");
      std::printf("artifacts in %s: sweep.csv sweep.json manifest.json\n",
                  opts.out_dir.c_str());
    }

    if (!bench_json.empty()) {
      const double scen_per_s =
          result.wall_s > 0
              ? static_cast<double>(result.rows.size()) / result.wall_s
              : 0;
      // The serial reference doubles as a determinism check: the digest
      // must not depend on the worker count.
      double serial_wall_s = 0;
      if (bench_serial) {
        SweepOptions serial = opts;
        serial.jobs = 1;
        serial.out_dir.clear();
        const SweepResult ref = run_sweep(grid, serial);
        serial_wall_s = ref.wall_s;
        if (sweep_digest(ref.rows) != sweep_digest(result.rows)) {
          std::fprintf(stderr,
                       "qa_sweep: --jobs %d digest differs from --jobs 1\n",
                       result.jobs);
          return 1;
        }
      }
      std::string json = "{\n";
      json += "  \"bench\": \"qa_sweep\",\n";
      json += "  \"grid_size\": " +
              json_number(static_cast<int64_t>(result.grid_size)) + ",\n";
      json += "  \"rows\": " +
              json_number(static_cast<int64_t>(result.rows.size())) + ",\n";
      json += "  \"jobs\": " + json_number(int64_t{result.jobs}) + ",\n";
      json += "  \"host_cpus\": " + json_number(int64_t{host_cpu_count()}) +
              ",\n";
      json += "  \"wall_s\": " + json_number(result.wall_s) + ",\n";
      json += "  \"scenarios_per_sec\": " + json_number(scen_per_s) + ",\n";
      if (bench_serial) {
        json += "  \"serial_wall_s\": " + json_number(serial_wall_s) + ",\n";
        json += "  \"parallel_speedup\": " +
                json_number(result.wall_s > 0 ? serial_wall_s / result.wall_s
                                              : 0) +
                ",\n";
        json += "  \"digest_matches_serial\": true,\n";
      }
      json += "  \"peak_rss_bytes\": " + json_number(peak_rss_bytes()) + "\n";
      json += "}\n";
      write_text_file(bench_json, json);
      std::printf("wrote %s\n", bench_json.c_str());
    }

    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qa_sweep: %s\n", e.what());
    return 1;
  }
}
