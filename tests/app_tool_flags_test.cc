// The shared tool-flag readers (app/tool_flags): presets pinned to the
// values the tools have always run, every flag writing its own field and
// nothing else, legacy spellings rejected, and bad enumerated values
// reported through invalid_choice().
#include "app/tool_flags.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/host.h"

namespace qa::app {
namespace {

Flags make(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const auto& a : args) argv.push_back(a.c_str());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

// Field-by-field equality; doubles compare exactly, since an absent flag
// must leave the preset's value bit-identical.
void expect_same(const ExperimentParams& a, const ExperimentParams& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.bottleneck, b.bottleneck);
  EXPECT_EQ(a.rtt, b.rtt);
  EXPECT_EQ(a.bottleneck_queue_bytes, b.bottleneck_queue_bytes);
  EXPECT_EQ(a.red_bottleneck, b.red_bottleneck);
  EXPECT_EQ(a.rap_flows, b.rap_flows);
  EXPECT_EQ(a.tcp_flows, b.tcp_flows);
  EXPECT_EQ(a.duration_sec, b.duration_sec);
  EXPECT_EQ(a.with_cbr, b.with_cbr);
  EXPECT_EQ(a.cbr_fraction, b.cbr_fraction);
  EXPECT_EQ(a.cbr_start_sec, b.cbr_start_sec);
  EXPECT_EQ(a.cbr_stop_sec, b.cbr_stop_sec);
  EXPECT_EQ(a.layer_rate, b.layer_rate);
  EXPECT_EQ(a.stream_layers, b.stream_layers);
  EXPECT_EQ(a.kmax, b.kmax);
  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_EQ(a.monotone, b.monotone);
  EXPECT_EQ(a.packet_size, b.packet_size);
  EXPECT_EQ(a.bottleneck_loss_rate, b.bottleneck_loss_rate);
  EXPECT_EQ(a.random_faults, b.random_faults);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.sample_dt_sec, b.sample_dt_sec);
  EXPECT_EQ(a.keep_client_packet_log, b.keep_client_packet_log);
  EXPECT_EQ(a.observability, b.observability);
}

void expect_same(const FarmParams& a, const FarmParams& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.bottleneck_bw, b.bottleneck_bw);
  EXPECT_EQ(a.rtt, b.rtt);
  EXPECT_EQ(a.bottleneck_queue_bytes, b.bottleneck_queue_bytes);
  EXPECT_EQ(a.stream_layers, b.stream_layers);
  EXPECT_EQ(a.layer_rate, b.layer_rate);
  EXPECT_EQ(a.packet_size, b.packet_size);
  EXPECT_EQ(a.arrival_rate_hz, b.arrival_rate_hz);
  EXPECT_EQ(a.mean_session, b.mean_session);
  EXPECT_EQ(a.flash_crowd_at, b.flash_crowd_at);
  EXPECT_EQ(a.flash_crowd_arrivals, b.flash_crowd_arrivals);
  EXPECT_EQ(a.mass_departure_at, b.mass_departure_at);
  EXPECT_EQ(a.mass_departure_fraction, b.mass_departure_fraction);
  EXPECT_EQ(a.outage_at, b.outage_at);
  EXPECT_EQ(a.outage, b.outage);
  EXPECT_EQ(a.admission_enabled, b.admission_enabled);
  EXPECT_EQ(a.ladder_enabled, b.ladder_enabled);
  EXPECT_EQ(a.sample_dt, b.sample_dt);
  EXPECT_EQ(a.registry, b.registry);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.flightrec, b.flightrec);
}

void expect_same(const SweepGrid& a, const SweepGrid& b) {
  expect_same(a.base, b.base);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.kmax, b.kmax);
  EXPECT_EQ(a.bottleneck_kbps, b.bottleneck_kbps);
  EXPECT_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.backends, b.backends);
}

void expect_same(const SweepOptions& a, const SweepOptions& b) {
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.shard_index, b.shard_index);
  EXPECT_EQ(a.shard_count, b.shard_count);
  EXPECT_EQ(a.out_dir, b.out_dir);
}

// ---- Presets, pinned to the scenarios the tools hard-coded -----------------

ExperimentParams pinned_fig2() {
  ExperimentParams p;
  p.rap_flows = 1;
  p.tcp_flows = 0;
  p.duration_sec = 20;
  p.seed = 1;
  p.bottleneck = Rate::kilobits_per_sec(240);
  p.layer_rate = Rate::bytes_per_sec(10'000);
  p.stream_layers = 8;
  p.kmax = 1;
  return p;
}

FarmParams pinned_farm(const std::string& name) {
  FarmParams p;
  p.stream_layers = 4;
  p.layer_rate = Rate::kilobytes_per_sec(2.5);
  p.packet_size = 500;
  if (name == "smoke") {
    p.slots = 16;
    p.duration = TimeDelta::seconds(60);
    p.bottleneck_bw = Rate::kilobytes_per_sec(100);
    p.arrival_rate_hz = 0.4;
    p.mean_session = TimeDelta::seconds(25);
  } else if (name == "churn500") {
    p.slots = 96;
    p.duration = TimeDelta::seconds(600);
    p.bottleneck_bw = Rate::kilobytes_per_sec(400);
    p.arrival_rate_hz = 0.8;
    p.mean_session = TimeDelta::seconds(45);
    p.flash_crowd_at = TimeDelta::seconds(120);
    p.flash_crowd_arrivals = 40;
    p.mass_departure_at = TimeDelta::seconds(300);
    p.mass_departure_fraction = 0.5;
  } else {
    p.slots = 24;
    p.duration = TimeDelta::seconds(180);
    p.bottleneck_bw = Rate::kilobytes_per_sec(50);
    p.arrival_rate_hz = 0.5;
    p.mean_session = TimeDelta::seconds(60);
  }
  return p;
}

SweepGrid pinned_sweep(const std::string& name) {
  SweepGrid g;
  g.base.rap_flows = 2;
  g.base.tcp_flows = 2;
  g.base.duration_sec = 20;
  if (name == "fig12") {
    g.kmax = {1, 2, 3, 4};
    g.seeds = {1, 2, 3, 4, 5};
    g.base.duration_sec = 40;
  } else if (name == "fig13") {
    g.kmax = {1, 2, 3, 4};
    g.seeds = {1, 2, 3};
    g.base.duration_sec = 90;
    g.base.with_cbr = true;
    g.base.kmax = 4;
    g.base.rap_flows = 10;
    g.base.tcp_flows = 10;
  }
  return g;
}

const std::vector<std::string> kFarmPresets = {"smoke", "churn500",
                                               "overload"};
const std::vector<std::string> kSweepPresets = {"", "fig12", "fig13"};

TEST(ToolFlagPresets, MatchTheScenariosTheToolsRun) {
  expect_same(ExperimentParams::fig2(), pinned_fig2());
  ExperimentParams t1;
  t1.kmax = 2;
  expect_same(ExperimentParams::t1(), t1);
  ExperimentParams t2;
  t2.kmax = 4;
  t2.duration_sec = 90;
  t2.with_cbr = true;
  expect_same(ExperimentParams::t2(), t2);
  for (const auto& name : kFarmPresets) {
    SCOPED_TRACE(name);
    expect_same(FarmParams::preset(name), pinned_farm(name));
  }
  for (const auto& name : kSweepPresets) {
    SCOPED_TRACE(name);
    expect_same(SweepGrid::preset(name), pinned_sweep(name));
  }
}

TEST(ToolFlagPresets, EmptyArgvLeavesEachPresetUnchanged) {
  const Flags none = make({});
  for (const ExperimentParams& preset :
       {ExperimentParams::fig2(), ExperimentParams::t1(),
        ExperimentParams::t2()}) {
    ExperimentParams p = preset;
    read_experiment_flags(none, &p);
    expect_same(p, preset);
  }
  for (const auto& name : kFarmPresets) {
    SCOPED_TRACE(name);
    FarmParams p = FarmParams::preset(name);
    read_farm_flags(none, &p);
    expect_same(p, FarmParams::preset(name));
  }
  for (const auto& name : kSweepPresets) {
    SCOPED_TRACE(name);
    SweepGrid g = SweepGrid::preset(name);
    SweepOptions opts;
    read_sweep_flags(none, &g, &opts);
    expect_same(g, SweepGrid::preset(name));
    SweepOptions want;
    want.jobs = host_cpu_count();
    expect_same(opts, want);
  }
  EXPECT_TRUE(none.unused().empty());
}

TEST(ToolFlagPresets, PresetFlagSelectsTheNamedPreset) {
  FarmParams farm = FarmParams::preset("smoke");
  read_farm_flags(make({"--preset", "churn500"}), &farm);
  expect_same(farm, pinned_farm("churn500"));

  SweepGrid grid = SweepGrid::preset("");
  SweepOptions opts;
  read_sweep_flags(make({"--preset", "fig13", "--duration-s", "10"}), &grid,
                   &opts);
  SweepGrid want = pinned_sweep("fig13");
  want.base.duration_sec = 10;  // explicit flags override the preset
  expect_same(grid, want);
}

// ---- Every flag sets its own field ------------------------------------------

struct Case {
  std::vector<std::string> args;
  std::function<void(ExperimentParams*)> expect;
};

// The fields read_experiment_flags and the sweep's base share.
std::vector<Case> base_cases() {
  return {
      {{"--duration-s", "7.5"}, [](auto* p) { p->duration_sec = 7.5; }},
      {{"--rap-flows", "3"}, [](auto* p) { p->rap_flows = 3; }},
      {{"--tcp-flows", "4"}, [](auto* p) { p->tcp_flows = 4; }},
      {{"--cbr"}, [](auto* p) { p->with_cbr = true; }},
      {{"--layers", "5"}, [](auto* p) { p->stream_layers = 5; }},
      {{"--layer-rate", "2500"},
       [](auto* p) { p->layer_rate = Rate::bytes_per_sec(2500); }},
      {{"--queue-bytes", "12000"},
       [](auto* p) { p->bottleneck_queue_bytes = 12'000; }},
      {{"--red"}, [](auto* p) { p->red_bottleneck = true; }},
      {{"--allocation", "equal-share"},
       [](auto* p) { p->allocation = core::AllocationPolicy::kEqualShare; }},
      {{"--packet-size", "500"}, [](auto* p) { p->packet_size = 500; }},
  };
}

TEST(ExperimentFlags, EveryFlagSetsItsOwnField) {
  std::vector<Case> cases = base_cases();
  cases.push_back({{"--backend", "nada"},
                   [](auto* p) { p->backend = cc::Backend::kNada; }});
  cases.push_back({{"--seed", "9"}, [](auto* p) { p->seed = 9; }});
  cases.push_back({{"--kmax", "3"}, [](auto* p) { p->kmax = 3; }});
  cases.push_back({{"--bottleneck-kbps", "800"}, [](auto* p) {
                     p->bottleneck = Rate::kilobits_per_sec(800);
                   }});
  cases.push_back({{"--rtt-ms", "120"},
                   [](auto* p) { p->rtt = TimeDelta::millis(120); }});
  cases.push_back({{"--faults", "4"}, [](auto* p) { p->random_faults = 4; }});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args[0]);
    const Flags flags = make(c.args);
    ExperimentParams p = ExperimentParams::fig2();
    read_experiment_flags(flags, &p);
    ExperimentParams want = ExperimentParams::fig2();
    c.expect(&want);
    expect_same(p, want);
    EXPECT_TRUE(flags.unused().empty());
  }
}

TEST(SweepFlags, EveryFlagSetsItsOwnField) {
  struct GridCase {
    std::vector<std::string> args;
    std::function<void(SweepGrid*, SweepOptions*)> expect;
  };
  std::vector<GridCase> cases = {
      {{"--seeds", "3,4"}, [](auto* g, auto*) { g->seeds = {3, 4}; }},
      {{"--kmax", "1,3"}, [](auto* g, auto*) { g->kmax = {1, 3}; }},
      {{"--bottleneck-kbps", "240,800"},
       [](auto* g, auto*) { g->bottleneck_kbps = {240, 800}; }},
      {{"--rtt-ms", "40,120"}, [](auto* g, auto*) { g->rtt_ms = {40, 120}; }},
      {{"--loss", "0,0.01"}, [](auto* g, auto*) { g->loss_rate = {0, 0.01}; }},
      {{"--faults", "0,4"}, [](auto* g, auto*) { g->faults = {0, 4}; }},
      {{"--backends", "rap,nada"},
       [](auto* g, auto*) {
         g->backends = {cc::Backend::kRap, cc::Backend::kNada};
       }},
      {{"--jobs", "3"}, [](auto*, auto* o) { o->jobs = 3; }},
      {{"--out-dir", "d"}, [](auto*, auto* o) { o->out_dir = std::string("d"); }},
  };
  for (Case& c : base_cases()) {
    cases.push_back({c.args, [expect = c.expect](auto* g, auto*) {
                       expect(&g->base);
                     }});
  }
  for (const GridCase& c : cases) {
    SCOPED_TRACE(c.args[0]);
    const Flags flags = make(c.args);
    SweepGrid g = SweepGrid::preset("");
    SweepOptions opts;
    read_sweep_flags(flags, &g, &opts);
    SweepGrid want = SweepGrid::preset("");
    SweepOptions want_opts;
    want_opts.jobs = host_cpu_count();
    c.expect(&want, &want_opts);
    expect_same(g, want);
    expect_same(opts, want_opts);
    EXPECT_TRUE(flags.unused().empty());
  }
}

TEST(SweepFlags, ReadsShard) {
  const Flags flags = make({"--shard", "1/3"});
  SweepGrid g = SweepGrid::preset("");
  SweepOptions opts;
  read_sweep_flags(flags, &g, &opts);
  SweepOptions want;
  want.jobs = host_cpu_count();
  want.shard_index = 1;
  want.shard_count = 3;
  expect_same(opts, want);
  EXPECT_TRUE(flags.unused().empty());
}

TEST(FarmFlags, EveryFlagSetsItsOwnField) {
  struct FarmCase {
    std::vector<std::string> args;
    std::function<void(FarmParams*)> expect;
  };
  const std::vector<FarmCase> cases = {
      {{"--backend", "tfrc"}, [](auto* p) { p->backend = cc::Backend::kTfrc; }},
      {{"--seed", "7"}, [](auto* p) { p->seed = 7; }},
      {{"--slots", "8"}, [](auto* p) { p->slots = 8; }},
      {{"--duration-s", "30"},
       [](auto* p) { p->duration = TimeDelta::seconds(30); }},
      {{"--bottleneck-kbps", "1600"},
       [](auto* p) { p->bottleneck_bw = Rate::kilobits_per_sec(1600); }},
      {{"--rtt-ms", "80"}, [](auto* p) { p->rtt = TimeDelta::millis(80); }},
      {{"--layers", "6"}, [](auto* p) { p->stream_layers = 6; }},
      {{"--layer-rate", "1250"},
       [](auto* p) { p->layer_rate = Rate::bytes_per_sec(1250); }},
      {{"--packet-size", "250"}, [](auto* p) { p->packet_size = 250; }},
      {{"--arrival-rate", "1.5"}, [](auto* p) { p->arrival_rate_hz = 1.5; }},
      {{"--mean-session-s", "10"},
       [](auto* p) { p->mean_session = TimeDelta::seconds(10); }},
      {{"--flash-crowd-at", "5"},
       [](auto* p) { p->flash_crowd_at = TimeDelta::seconds(5); }},
      {{"--flash-crowd-n", "12"},
       [](auto* p) { p->flash_crowd_arrivals = 12; }},
      {{"--mass-departure-at", "9"},
       [](auto* p) { p->mass_departure_at = TimeDelta::seconds(9); }},
      {{"--mass-departure-frac", "0.25"},
       [](auto* p) { p->mass_departure_fraction = 0.25; }},
      {{"--outage-at", "11"},
       [](auto* p) { p->outage_at = TimeDelta::seconds(11); }},
      {{"--outage-s", "3"}, [](auto* p) { p->outage = TimeDelta::seconds(3); }},
      {{"--sample-dt", "0.25"},
       [](auto* p) { p->sample_dt = TimeDelta::millis(250); }},
      {{"--no-admission"}, [](auto* p) { p->admission_enabled = false; }},
      {{"--no-ladder"}, [](auto* p) { p->ladder_enabled = false; }},
  };
  for (const FarmCase& c : cases) {
    SCOPED_TRACE(c.args[0]);
    const Flags flags = make(c.args);
    FarmParams p = FarmParams::preset("smoke");
    read_farm_flags(flags, &p);
    FarmParams want = FarmParams::preset("smoke");
    c.expect(&want);
    expect_same(p, want);
    EXPECT_TRUE(flags.unused().empty());
  }
}

TEST(ChaosFlags, EveryFlagSetsItsOwnField) {
  struct ChaosCase {
    std::vector<std::string> args;
    std::function<void(ChaosParams*, int*)> expect;
  };
  const std::vector<ChaosCase> cases = {
      {{"--seeds", "3"}, [](auto*, int* seeds) { *seeds = 3; }},
      {{"--first-seed", "1000"}, [](auto* p, int*) { p->seed = 1000; }},
      {{"--faults", "8"}, [](auto* p, int*) { p->faults = 8; }},
      {{"--warmup", "0"},
       [](auto* p, int*) { p->warmup = TimeDelta::zero(); }},
      {{"--window", "5"},
       [](auto* p, int*) { p->fault_window = TimeDelta::seconds(5); }},
      {{"--tail", "7"}, [](auto* p, int*) { p->tail = TimeDelta::seconds(7); }},
      {{"--recovery-bound", "15"},
       [](auto* p, int*) { p->recovery_bound = TimeDelta::seconds(15); }},
      {{"--bottleneck-kbps", "400"},
       [](auto* p, int*) { p->bottleneck = Rate::kilobits_per_sec(400); }},
      {{"--layers", "6"}, [](auto* p, int*) { p->stream_layers = 6; }},
      {{"--layer-rate", "1250"},
       [](auto* p, int*) { p->layer_rate = Rate::bytes_per_sec(1250); }},
  };
  for (const ChaosCase& c : cases) {
    SCOPED_TRACE(c.args[0]);
    const Flags flags = make(c.args);
    ChaosParams p;
    int seeds = 50;
    read_chaos_flags(flags, &p, &seeds);
    ChaosParams want;
    int want_seeds = 50;
    c.expect(&want, &want_seeds);
    EXPECT_EQ(seeds, want_seeds);
    EXPECT_EQ(p.seed, want.seed);
    EXPECT_EQ(p.faults, want.faults);
    EXPECT_EQ(p.warmup, want.warmup);
    EXPECT_EQ(p.fault_window, want.fault_window);
    EXPECT_EQ(p.tail, want.tail);
    EXPECT_EQ(p.recovery_bound, want.recovery_bound);
    EXPECT_EQ(p.bottleneck, want.bottleneck);
    EXPECT_EQ(p.stream_layers, want.stream_layers);
    EXPECT_EQ(p.layer_rate, want.layer_rate);
    EXPECT_TRUE(flags.unused().empty());
  }
}

// ---- What the readers reject ------------------------------------------------

TEST(ToolFlags, LegacySpellingsAreUnused) {
  const std::vector<std::string> legacy = {"duration", "packet", "rap", "tcp"};
  const Flags flags = make({"--duration", "5", "--rap", "3", "--tcp", "4",
                            "--packet", "100"});
  ExperimentParams p = ExperimentParams::fig2();
  read_experiment_flags(flags, &p);
  expect_same(p, ExperimentParams::fig2());
  EXPECT_EQ(flags.unused(), legacy);

  const Flags sweep_flags = make({"--duration", "5", "--rap", "3", "--tcp",
                                  "4", "--packet", "100"});
  SweepGrid g = SweepGrid::preset("");
  SweepOptions opts;
  read_sweep_flags(sweep_flags, &g, &opts);
  EXPECT_EQ(sweep_flags.unused(), legacy);

  const Flags farm_flags = make({"--duration", "5", "--packet", "100"});
  FarmParams farm = FarmParams::preset("smoke");
  read_farm_flags(farm_flags, &farm);
  EXPECT_EQ(farm_flags.unused(),
            (std::vector<std::string>{"duration", "packet"}));
}

TEST(SweepFlags, AxisListsParseStrictly) {
  const auto read = [](const std::string& arg) {
    SweepGrid g;
    SweepOptions opts;
    read_sweep_flags(make({arg}), &g, &opts);
    return g;
  };
  EXPECT_EQ(read("--kmax=1,2,3").kmax, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(read("--seeds=7").seeds, (std::vector<uint64_t>{7}));
  EXPECT_EQ(read("--loss=0.5,1e-3").loss_rate,
            (std::vector<double>{0.5, 0.001}));
  for (const std::string bad : {"--kmax=", "--kmax=1,,2", "--kmax=1,x",
                                "--kmax=1.5", "--rtt-ms=1.5mm",
                                "--seeds=-1"}) {
    EXPECT_THROW(read(bad), std::invalid_argument) << bad;
  }
}

// A tool that reads only the experiment flags (qa_trace) leaves a
// farm-only flag unread, so it reaches the typo gate instead of being
// silently ignored.
TEST(ToolFlags, FarmOnlyFlagsAreUnusedInFig2Mode) {
  const Flags flags = make({"--slots", "3", "--arrival-rate", "2",
                            "--no-admission", "--duration-s", "5"});
  ExperimentParams p = ExperimentParams::fig2();
  read_experiment_flags(flags, &p);
  EXPECT_EQ(p.duration_sec, 5);
  EXPECT_EQ(flags.unused(), (std::vector<std::string>{
                                "arrival-rate", "no-admission", "slots"}));
}

// The std::invalid_argument message `read` throws for `args`.
template <typename Read>
std::string error_of(const std::vector<std::string>& args, Read read) {
  try {
    read(make(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(ToolFlags, BadChoicesGiveTheInvalidChoiceMessage) {
  const auto experiment = [](const Flags& f) {
    ExperimentParams p;
    read_experiment_flags(f, &p);
  };
  const auto farm = [](const Flags& f) {
    FarmParams p;
    read_farm_flags(f, &p);
  };
  const auto sweep = [](const Flags& f) {
    SweepGrid g;
    SweepOptions opts;
    read_sweep_flags(f, &g, &opts);
  };
  const std::vector<std::string> backends = {"rap", "tfrc", "nada"};
  EXPECT_EQ(error_of({"--backend", "cubic"}, experiment),
            invalid_choice("--backend", "cubic", backends));
  EXPECT_EQ(error_of({"--allocation", "greedy"}, experiment),
            invalid_choice("--allocation", "greedy",
                           {"optimal", "equal-share", "base-only"}));
  EXPECT_EQ(error_of({"--preset", "huge"}, farm),
            invalid_choice("--preset", "huge",
                           {"smoke", "churn500", "overload"}));
  EXPECT_EQ(error_of({"--backend", "bbr"}, farm),
            invalid_choice("--backend", "bbr", backends));
  EXPECT_EQ(error_of({"--preset", "fig99"}, sweep),
            invalid_choice("--preset", "fig99", {"fig12", "fig13"}));
  EXPECT_EQ(error_of({"--backends", "rap,bbr"}, sweep),
            invalid_choice("--backends", "bbr", backends));
  for (const std::string shard : {"2/2", "1", "a/2", "0/2x", "-1/2"}) {
    EXPECT_EQ(error_of({"--shard", shard}, sweep),
              "bad --shard '" + shard + "' (want I/K, 0<=I<K)");
  }
}

TEST(ToolFlags, OutOfDomainNumbersGiveTheRangeMessage) {
  const auto experiment = [](const Flags& f) {
    ExperimentParams p;
    read_experiment_flags(f, &p);
  };
  const auto farm = [](const Flags& f) {
    FarmParams p;
    read_farm_flags(f, &p);
  };
  const auto sweep = [](const Flags& f) {
    SweepGrid g;
    SweepOptions opts;
    read_sweep_flags(f, &g, &opts);
  };
  EXPECT_EQ(error_of({"--kmax", "-3"}, experiment),
            "--kmax must be > 0 (got -3)");
  EXPECT_EQ(error_of({"--layers", "0"}, experiment),
            "--layers must be > 0 (got 0)");
  EXPECT_EQ(error_of({"--duration-s=-3"}, experiment),
            "--duration-s must be finite and > 0 (got -3)");
  EXPECT_EQ(error_of({"--layer-rate", "0"}, experiment),
            "--layer-rate must be finite and > 0 (got 0)");
  EXPECT_EQ(error_of({"--bottleneck-kbps", "nan"}, experiment),
            "--bottleneck-kbps must be finite and > 0 (got nan)");
  EXPECT_EQ(error_of({"--duration-s", "inf"}, farm),
            "--duration-s must be finite and > 0 (got inf)");
  EXPECT_EQ(error_of({"--kmax", "1,0"}, sweep), "--kmax must be > 0 (got 0)");
  EXPECT_EQ(error_of({"--bottleneck-kbps", "240,-1"}, sweep),
            "--bottleneck-kbps must be finite and > 0 (got -1)");
  EXPECT_EQ(error_of({"--layers", "0"}, sweep),
            "--layers must be > 0 (got 0)");
  // Each of these once reached a library QA_CHECK and aborted.
  EXPECT_EQ(error_of({"--rtt-ms", "0"}, experiment),
            "--rtt-ms must be finite and > 0 (got 0)");
  EXPECT_EQ(error_of({"--rtt-ms", "nan"}, farm),
            "--rtt-ms must be finite and > 0 (got nan)");
  EXPECT_EQ(error_of({"--rtt-ms", "40,0"}, sweep),
            "--rtt-ms must be finite and > 0 (got 0)");
  EXPECT_EQ(error_of({"--packet-size", "0"}, experiment),
            "--packet-size must be > 0 (got 0)");
  EXPECT_EQ(error_of({"--packet-size", "0"}, farm),
            "--packet-size must be > 0 (got 0)");
  EXPECT_EQ(error_of({"--rap-flows", "0"}, experiment),
            "--rap-flows must be >= 1 (got 0)");
  EXPECT_EQ(error_of({"--tcp-flows", "-1"}, experiment),
            "--tcp-flows must be >= 0 (got -1)");
  EXPECT_EQ(error_of({"--loss", "0,1"}, sweep),
            "--loss must be finite and in [0, 1) (got 1)");
  EXPECT_EQ(error_of({"--mass-departure-frac", "1.5"}, farm),
            "--mass-departure-frac must be finite and in [0, 1] (got 1.5)");
  EXPECT_EQ(error_of({"--flash-crowd-at", "inf"}, farm),
            "--flash-crowd-at must be finite (got inf)");
  EXPECT_EQ(error_of({"--arrival-rate", "0"}, farm),
            "--arrival-rate must be finite and > 0 (got 0)");
}

// A scalar must parse in full, like a list element: "2.7x" is an error,
// not kmax 2, and "1e3" is no integer.
TEST(ToolFlags, ScalarsParseStrictly) {
  const auto experiment = [](const Flags& f) {
    ExperimentParams p;
    read_experiment_flags(f, &p);
  };
  EXPECT_EQ(error_of({"--kmax", "2.7x"}, experiment),
            "--kmax: trailing characters in '2.7x'");
  EXPECT_EQ(error_of({"--rap-flows", "1e3"}, experiment),
            "--rap-flows: trailing characters in '1e3'");
  EXPECT_EQ(error_of({"--duration-s", "5s"}, experiment),
            "--duration-s: trailing characters in '5s'");
  EXPECT_EQ(error_of({"--rtt-ms=abc"}, experiment),
            "--rtt-ms: not a number: 'abc'");
  EXPECT_EQ(error_of({"--seed="}, experiment), "--seed: not a number: ''");
  EXPECT_EQ(error_of({"--kmax", "99999999999"}, experiment),
            "--kmax: out of range: '99999999999'");
  ExperimentParams p;
  read_experiment_flags(make({"--duration-s", "1e1", "--seed", "7"}), &p);
  EXPECT_EQ(p.duration_sec, 10);
  EXPECT_EQ(p.seed, 7u);
}

// ---- Usage lines carry the preset's defaults --------------------------------

TEST(ToolFlags, UsageShowsThePresetDefaults) {
  const std::string fig2 = experiment_flags_usage(ExperimentParams::fig2());
  EXPECT_NE(
      fig2.find("--bottleneck-kbps K    bottleneck bandwidth (default 240)"),
      std::string::npos)
      << fig2;
  EXPECT_NE(fig2.find("(default 10000)"), std::string::npos) << fig2;
  const std::string t1 = experiment_flags_usage(ExperimentParams::t1());
  EXPECT_NE(t1.find("bottleneck bandwidth (default 800)"), std::string::npos);

  const std::string churn = farm_flags_usage(FarmParams::preset("churn500"));
  EXPECT_NE(churn.find("concurrent-session capacity (default 96)"),
            std::string::npos)
      << churn;
  const std::string fig12 = sweep_flags_usage(SweepGrid::preset("fig12"));
  EXPECT_NE(fig12.find("K_max values (default 1,2,3,4)"), std::string::npos)
      << fig12;
}

}  // namespace
}  // namespace qa::app
