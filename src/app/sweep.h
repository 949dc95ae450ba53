// Parallel experiment sweep runner.
//
// The paper's results are parameter sweeps — Kmax grids (fig 12),
// backoff-scenario grids (figs 7–10), responsiveness trade-offs (fig 13) —
// and every scenario is an independent simulation. This module fans a
// declarative grid (the cartesian product of seed, Kmax, bottleneck
// bandwidth, RTT, wire-loss rate, fault-schedule intensity, and
// congestion-control backend, applied over a base ExperimentParams) across
// a pool of worker threads, one fully
// isolated Scheduler + topology per job, and merges the per-scenario
// summaries into a single CSV/JSON artifact plus a provenance manifest.
//
// Determinism model (DESIGN.md §12):
//   * a job's parameters and RNG seed are pure functions of its grid
//     coordinates — the per-job seed is SplitMix64 over (base seed, axis
//     indices), never thread-arrival order;
//   * jobs share no mutable state: each worker claims grid indices from an
//     atomic cursor and writes its summary into that index's pre-sized
//     result slot, so the merged output is ordered by grid index no matter
//     which worker ran what when;
//   * global hooks (log sink/time source, check-failure hooks) are left
//     untouched by workers; run_sweep neither installs nor requires them.
// Consequence: `--jobs N` changes wall time only. The canonical digest of
// the merged rows (reusing util/rundiff's FNV-1a canonical_digest) is
// byte-identical for any job count, and the union of `--shard i/k` runs
// equals the unsharded run — which is exactly what tests/app_sweep_test.cc
// asserts and what CI's TSan'd sweep job exercises.
//
// Memory stays bounded: a worker requests no sampled series and reduces
// each ExperimentResult to the scalar SweepRow before the next job starts,
// so a thousand-scenario grid holds a thousand rows, not a thousand runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "util/rundiff.h"

namespace qa::app {

// One axis value list per swept dimension; the grid is their cartesian
// product applied over `base`. Every axis must be non-empty.
struct SweepGrid {
  ExperimentParams base;
  std::vector<uint64_t> seeds = {1};
  std::vector<int> kmax = {2};
  std::vector<double> bottleneck_kbps = {800};
  std::vector<double> rtt_ms = {40};
  std::vector<double> loss_rate = {0.0};  // Bernoulli wire loss, 0 = none
  std::vector<int> faults = {0};          // random fault count, 0 = none
  // Congestion-control backend of the QA flow (fastest-varying axis).
  std::vector<cc::Backend> backends = {cc::Backend::kRap};

  size_t size() const;
  // The fully resolved parameter set of grid point `index` (row-major over
  // the axes in declaration order, seeds slowest). Includes the derived
  // per-job seed.
  ExperimentParams params_at(size_t index) const;

  // The grids the sweep tools run (--preset). "" is their default: one
  // point of a small contended dumbbell (2 RAP + 2 TCP flows, 20 s).
  // "fig12" is figure 12's quality stability vs Kmax 1-4 over 5 seeds
  // (40 s runs); "fig13" is figure 13's Kmax 1-4 x 3 seeds under the T2
  // CBR step. Throws std::invalid_argument with the invalid_choice()
  // message for any other name.
  static SweepGrid preset(const std::string& name);
};

// Per-job seed: SplitMix64 chained over the base seed and the point's axis
// coordinates. Depends only on the grid shape and index.
uint64_t derive_job_seed(const SweepGrid& grid, size_t index);

// The bounded per-scenario summary (one merged-CSV row).
struct SweepRow {
  size_t index = 0;  // grid index (global, not shard-relative)
  // Resolved coordinates.
  uint64_t seed = 0;
  uint64_t derived_seed = 0;
  int kmax = 0;
  double bottleneck_kbps = 0;
  TimeDelta rtt;
  double loss_rate = 0;
  int faults = 0;
  cc::Backend backend = cc::Backend::kRap;
  bool ok = false;  // false: the job threw; measurement columns are zero
  // Quality/buffering summary.
  double mean_layers = 0;
  int64_t quality_changes = 0;
  int64_t drops = 0;
  int64_t adds = 0;
  double mean_efficiency = 0;
  double final_total_buffer = 0;
  double stall_s = 0;
  int64_t rebuffer_events = 0;
  double rebuffer_s = 0;
  // Transport summary, including per-flow goodput of the competitors.
  double qa_mean_rate_bps = 0;
  int64_t qa_packets = 0;
  int64_t qa_losses = 0;
  int64_t qa_backoffs = 0;
  double mean_rap_rate_bps = 0;
  double mean_tcp_rate_bps = 0;
};

// Column names of the merged CSV, in emission order.
const std::vector<std::string>& sweep_columns();
// `row` rendered in canonical column order (doubles via %.17g, so the CSV
// round-trips exactly).
std::vector<std::string> sweep_row_cells(const SweepRow& row);

struct SweepOptions {
  int jobs = 1;  // worker threads (>= 1)
  // Run only grid points with index % shard_count == shard_index.
  int shard_index = 0;
  int shard_count = 1;
  // When non-empty: write sweep.csv, sweep.json, and manifest.json here
  // (directory is created).
  std::string out_dir;
};

struct SweepResult {
  std::vector<SweepRow> rows;  // this shard's rows, ordered by grid index
  size_t grid_size = 0;        // full grid, all shards
  int jobs = 1;
  double wall_s = 0;           // host wall time of the parallel section
};

// Runs the (sharded) grid across `opts.jobs` workers and returns the
// merged rows. Throws std::invalid_argument on an empty axis or bad shard
// spec; a job failure is recorded in its row (ok = false), not thrown.
SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& opts);

// Canonical field map of the merged rows (field "r<index>.<column>"), the
// exchange format shared with util/rundiff: sweep.json is these fields in
// metrics.json shape (so qa_diff can compare two sweeps), and the digest
// below is rundiff's canonical_digest over them.
RunFields sweep_fields(const std::vector<SweepRow>& rows);
uint64_t sweep_digest(const std::vector<SweepRow>& rows);

// Writes sweep.csv + sweep.json into out_dir (which must exist).
void write_sweep_artifacts(const std::vector<SweepRow>& rows,
                           const std::string& out_dir);

}  // namespace qa::app
