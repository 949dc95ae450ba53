// The one command-line reader behind every tool: scenario, sweep-axis,
// farm, chaos and observability flags are read here, once, so a spelling,
// unit or default cannot drift between binaries.
//
// Each reader takes the tool's preset as its defaults: a field whose flag
// is absent keeps the preset's value bit for bit, and the matching
// *_usage() prints one line per flag with the default taken from the same
// preset. Every reader throws std::invalid_argument on bad input: a bad
// enumerated value (--backend, --allocation, --preset, --backends) carries
// the invalid_choice() message; a malformed --shard names the I/K form; a
// number that does not parse in full names the flag and the text
// (parse_number); and a number outside its flag's domain (--rtt-ms 0,
// --rap-flows 0, --loss 1, ...) names the flag, range and value. A reader
// leaves every flag it does not own unread, so exit_on_unknown_flags()
// reports what the chosen mode ignores.
#pragma once

#include <cstddef>
#include <string>

#include "app/chaos.h"
#include "app/experiment.h"
#include "app/farm.h"
#include "app/observability.h"
#include "app/sweep.h"
#include "util/flags.h"

namespace qa::app {

// One scenario: --backend --seed --kmax --bottleneck-kbps --rtt-ms
// --faults, plus the base-scenario flags --duration-s --rap-flows
// --tcp-flows --cbr --layers --layer-rate --queue-bytes --red --allocation
// --packet-size.
void read_experiment_flags(const Flags& flags, ExperimentParams* params);
std::string experiment_flags_usage(ExperimentParams defaults);

// A sweep grid. --preset NAME first replaces *grid with
// SweepGrid::preset(NAME). Then come the axis lists --seeds --kmax
// --bottleneck-kbps --rtt-ms --loss --faults --backends, the base-scenario
// flags, and the execution flags --jobs (default: host cores), --out-dir
// and --shard I/K.
void read_sweep_flags(const Flags& flags, SweepGrid* grid, SweepOptions* opts);
std::string sweep_flags_usage(SweepGrid defaults);

// A server farm. --preset NAME first replaces *params with
// FarmParams::preset(NAME); then every scenario flag qa_farm lists.
void read_farm_flags(const Flags& flags, FarmParams* params);
std::string farm_flags_usage(FarmParams defaults);

// A chaos sweep: --seeds N trials of *params, the first with --first-seed
// (params->seed), then --faults --warmup --window --tail --recovery-bound
// --bottleneck-kbps --layers --layer-rate.
void read_chaos_flags(const Flags& flags, ChaosParams* params, int* seeds);
std::string chaos_flags_usage(ChaosParams defaults, int seeds);

// Flight-recorder subset, for tools (qa_farm) that arm a FlightRecorder
// directly instead of going through Observability.
struct FlightRecFlags {
  bool enabled = true;
  size_t events = 1024;
};

// Reads --flightrec (default on; --no-flightrec disables) and
// --flightrec-events N.
FlightRecFlags flightrec_flags(const Flags& flags);

// Reads the full observability flag set and returns a config rooted at
// `out_dir`. Flags read: --trace --metrics --profile --journeys
// --flightrec (all default-on booleans) and --flightrec-events.
ObservabilityConfig observability_flags(const Flags& flags,
                                        const std::string& out_dir);
const char* observability_flags_usage();

}  // namespace qa::app
