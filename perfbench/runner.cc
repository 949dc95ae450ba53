// perfbench_runner — measures one workload of the qastream benchmark.
//
//   perfbench_runner --workload t1_dumbbell --seed 7 --seconds 10
//                    --trace 0 --work-dir .bench_build/work
//
// Every workload replays a fixed reference input (scenario seed 1, whose
// digest perfbench/spec.json pins) plus inputs derived from --seed,
// round-robin, until --seconds of wall time are spent. With --trace 0 every
// replay is bare and timed. With --trace 1 traced, bare and (where the
// workload has one) baseline replays alternate, and the traced ones are
// broken down by layer. Before timing, each input is replayed once more
// with counters attached; that replay supplies the digests, the exact
// counts and the domain values the output check reads.
//
// The runner prints one JSON object of raw samples on stdout;
// perfbench/run.py checks it and turns it into the benchmark's metrics.
// It calls only the library's public entry points (run_experiment,
// run_farm, tracedrive, QualityAdapter, Observability).
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/farm.h"
#include "app/observability.h"
#include "core/quality_adapter.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/flags.h"
#include "util/host.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/rundiff.h"

namespace fs = std::filesystem;
using namespace qa;
using namespace qa::app;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Named numbers; std::map keeps the JSON output in a stable order.
using Values = std::map<std::string, double>;

void add_into(Values& sum, const Values& v) {
  for (const auto& [k, x] : v) sum[k] += x;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Canonical digest of named result fields, with rundiff's rules: integral
// fields as counters (exact), the rest as gauges printed at 9 digits.
class FieldDigest {
 public:
  void count(const std::string& name, int64_t v) {
    fields_[name + ".value"] =
        RunField{"counter", "value", static_cast<double>(v), false};
  }
  void real(const std::string& name, double v) {
    fields_[name + ".value"] = RunField{"gauge", "value", v, false};
  }
  std::string hex() const {
    return hex64(canonical_digest(fields_, RunDiffRules{}));
  }

 private:
  RunFields fields_;
};

// What the counting replay of one input yields.
struct Check {
  std::string result_digest;  // every bare replay of the input must match
  std::string pinned_digest;  // compared with spec.json for the reference
  int64_t packets = 0;  // data packets delivered (tracedrive: send slots)
  Values counts;        // exact-repeat counts (reported for the reference)
  Values sanity;        // domain values checked against spec.json ranges
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Simulated seconds one replay covers.
  virtual double sim_seconds() const = 0;
  // One set-up probe: build the input's scenario and tear it down with
  // (almost) no simulated time in between. Timed by the caller.
  virtual void setup(uint64_t seed) = 0;
  // One bare replay; returns the result digest.
  virtual std::string run(uint64_t seed) = 0;
  virtual Check check(uint64_t seed) = 0;
  // One traced replay: additive per-layer busy times (ms) and event counts.
  virtual Values traced(uint64_t seed) = 0;
  // A reference configuration the end-to-end replay is compared with in
  // the traced run (fig2_artifacts: the same scenario with no sinks).
  virtual bool has_baseline() const { return false; }
  virtual void baseline(uint64_t /*seed*/) {}
};

// --- Dumbbell scenarios (t1_dumbbell, fig2_artifacts). ---------------------

std::string experiment_digest(const ExperimentResult& r) {
  FieldDigest d;
  d.count("qa.packets_sent", r.qa_packets_sent);
  d.count("qa.losses", r.qa_losses);
  d.count("qa.backoffs", r.qa_backoffs);
  d.count("qa.drops", static_cast<int64_t>(r.metrics.drops().size()));
  d.count("qa.adds", static_cast<int64_t>(r.metrics.adds().size()));
  d.count("client.base_stall_ns", r.client_base_stall.ns());
  d.count("client.rebuffer_events", r.rebuffer_events);
  d.count("client.rebuffer_ns", r.rebuffer_time.ns());
  d.real("qa.efficiency", r.metrics.mean_efficiency());
  d.real("qa.mean_rate", r.qa_mean_rate_bps);
  d.real("mirror.total_buffer", r.final_mirror_total_buffer);
  d.real("client.total_buffer", r.final_client_total_buffer);
  d.real("rap.competitor_rate", r.mean_rap_competitor_rate_bps);
  d.real("tcp.mean_rate", r.mean_tcp_rate_bps);
  return d.hex();
}

// Busy time per event category from the scheduler profiler, keyed by the
// benchmark's layer names, plus the replay's measured wall. Event counts
// per layer come from the counting replay instead.
Values profile_values(const sim::SchedulerProfiler& prof, double wall_s) {
  using sim::EventCategory;
  auto ms = [&](EventCategory c) {
    return static_cast<double>(prof.stats(c).wall_ns) * 1e-6;
  };
  Values v;
  v["wall_ms"] = wall_s * 1e3;
  v["handlers_ms"] = static_cast<double>(prof.total_wall_ns()) * 1e-6;
  v["sched.events"] = static_cast<double>(prof.total_dispatches());
  v["link.tx.ms"] = ms(EventCategory::kLinkTx);
  v["link.wire.ms"] = ms(EventCategory::kLinkWire);
  v["transport.ms"] = ms(EventCategory::kTransport);
  v["probe.ms"] = ms(EventCategory::kProbe);
  return v;
}

double field(const RunFields& f, const std::string& name) {
  const auto it = f.find(name);
  if (it == f.end()) throw std::runtime_error("metrics.json lacks " + name);
  return it->second.value;
}

// Counts and domain values shared by the dumbbell workloads, from the
// counting replay's metrics.json and result.
void dumbbell_check(const ExperimentParams& p, const ExperimentResult& r,
                    const RunFields& f, Check* c) {
  c->result_digest = experiment_digest(r);
  c->pinned_digest = hex64(canonical_digest(f, RunDiffRules{}));
  const double delivered = field(f, "link.bottleneck.delivered_packets.value");
  const double enq = field(f, "link.bottleneck.enqueued_packets.value");
  const double drops = field(f, "link.bottleneck.queue_drops.value");
  const double padding = field(f, "adapter.padding_slots.value");
  const double media = field(f, "adapter.media_packets.value");
  double events = 0;
  for (const char* cat : {"generic", "link_tx", "link_wire", "transport",
                          "adapter", "probe", "fault"}) {
    events += field(f, std::string("scheduler.") + cat + ".dispatches.value");
  }
  c->packets = static_cast<int64_t>(delivered);
  c->counts["sched.events"] = events;
  c->counts["sched.events_per_packet"] = events / delivered;
  c->counts["link.tx.events"] = field(f, "scheduler.link_tx.dispatches.value");
  c->counts["link.wire.events"] =
      field(f, "scheduler.link_wire.dispatches.value");
  c->counts["transport.events"] =
      field(f, "scheduler.transport.dispatches.value");
  c->counts["link.bottleneck.delivered"] = delivered;
  c->counts["link.bottleneck.drop_frac"] = drops / (enq + drops);
  c->counts["cc.qa.backoffs"] = static_cast<double>(r.qa_backoffs);
  c->counts["cc.qa.losses"] = static_cast<double>(r.qa_losses);
  c->counts["core.decisions"] = padding + media;
  c->counts["core.padding_frac"] = padding / (padding + media);
  c->counts["core.adds"] = static_cast<double>(r.metrics.adds().size());
  c->counts["core.drops"] = static_cast<double>(r.metrics.drops().size());
  c->counts["core.efficiency"] = r.metrics.mean_efficiency();
  // The QA flow's goodput as a share of its fair share of the bottleneck.
  const double fair_bytes_per_s =
      p.bottleneck.bps() / (p.rap_flows + p.tcp_flows);
  c->sanity["qa_fair_share"] =
      static_cast<double>(r.qa_packets_sent) * p.packet_size /
      p.duration_sec / fair_bytes_per_s;
  c->sanity["core_efficiency"] = r.metrics.mean_efficiency();
}

ObservabilityConfig sinks_off() {
  ObservabilityConfig cfg;
  cfg.trace = false;
  cfg.metrics = false;
  cfg.profile = false;
  cfg.journeys = false;
  cfg.flightrec = false;
  return cfg;
}

// The paper's T1 (fig 11): one QA-RAP flow, 9 RAP and 10 TCP flows on an
// 800 Kb/s drop-tail dumbbell, 40 ms RTT, C = 1250 B/s, Kmax = 2.
class T1Dumbbell : public Workload {
 public:
  static constexpr double kDuration = 600;

  explicit T1Dumbbell(std::string dir) : dir_(std::move(dir)) {}

  static ExperimentParams params(uint64_t seed, double duration) {
    ExperimentParams p = ExperimentParams::t1(/*kmax=*/2, seed);
    p.duration_sec = duration;
    return p;
  }

  double sim_seconds() const override { return kDuration; }
  void setup(uint64_t seed) override { run_experiment(params(seed, 0.05)); }
  std::string run(uint64_t seed) override {
    return experiment_digest(run_experiment(params(seed, kDuration)));
  }
  Check check(uint64_t seed) override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ObservabilityConfig cfg = sinks_off();
    cfg.out_dir = dir_;
    cfg.metrics = true;
    cfg.profile = true;
    Observability obs(cfg);
    ExperimentParams p = params(seed, kDuration);
    p.observability = &obs;
    const ExperimentResult r = run_experiment(p);
    RunFields f;
    std::string err;
    if (!load_run_fields(dir_ + "/metrics.json", &f, &err)) {
      throw std::runtime_error("t1 metrics.json: " + err);
    }
    Check c;
    dumbbell_check(p, r, f, &c);
    return c;
  }
  // Profiler on, every other sink off.
  Values traced(uint64_t seed) override {
    ObservabilityConfig cfg = sinks_off();
    cfg.profile = true;
    Observability obs(cfg);
    ExperimentParams p = params(seed, kDuration);
    p.observability = &obs;
    const auto t0 = Clock::now();
    run_experiment(p);
    return profile_values(obs.profiler(), seconds_since(t0));
  }

 private:
  std::string dir_;
};

// The qa_trace fig-2 scenario (one QA-RAP flow alone on a 240 Kb/s
// dumbbell, C = 10 kB/s, Kmax = 1) with every sink writing: Chrome trace,
// metrics, journeys, flight recorder and profiler.
class Fig2Artifacts : public Workload {
 public:
  static constexpr double kDuration = 120;

  explicit Fig2Artifacts(std::string dir) : dir_(std::move(dir)) {}

  // A lone flow on a drop-tail link is deterministic whatever its seed, so
  // derived inputs also move the bottleneck a few percent off 240 Kb/s.
  static ExperimentParams params(uint64_t seed, double duration) {
    ExperimentParams p;
    p.rap_flows = 1;
    p.tcp_flows = 0;
    p.bottleneck = Rate::kilobits_per_sec(
        seed == 1 ? 240.0 : 236.0 + static_cast<double>(seed % 9));
    p.layer_rate = Rate::bytes_per_sec(10'000);
    p.stream_layers = 8;
    p.kmax = 1;
    p.seed = seed;
    p.duration_sec = duration;
    return p;
  }

  double sim_seconds() const override { return kDuration; }
  bool has_baseline() const override { return true; }

  void setup(uint64_t seed) override { replay(seed, 0.05); }
  std::string run(uint64_t seed) override {
    return experiment_digest(replay(seed, kDuration).result);
  }
  void baseline(uint64_t seed) override {
    run_experiment(params(seed, kDuration));
  }
  Check check(uint64_t seed) override {
    const Replay rp = replay(seed, kDuration);
    Check c;
    dumbbell_check(params(seed, kDuration), rp.result, rp.fields, &c);
    c.counts["obs.trace_bytes"] = static_cast<double>(rp.trace_bytes);
    c.counts["obs.metrics_bytes"] = static_cast<double>(rp.metrics_bytes);
    c.sanity["artifact_mb"] =
        static_cast<double>(rp.trace_bytes + rp.metrics_bytes) / 1e6;
    return c;
  }
  // The workload profiles already; the traced replay only reads it.
  Values traced(uint64_t seed) override {
    const Replay rp = replay(seed, kDuration);
    return rp.profile;
  }

 private:
  struct Replay {
    ExperimentResult result;
    RunFields fields;
    Values profile;
    uintmax_t trace_bytes = 0;
    uintmax_t metrics_bytes = 0;
  };

  Replay replay(uint64_t seed, double duration) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ObservabilityConfig cfg;  // every sink on
    cfg.out_dir = dir_;
    Replay rp;
    {
      Observability obs(cfg);
      ExperimentParams p = params(seed, duration);
      p.observability = &obs;
      const auto t0 = Clock::now();
      rp.result = run_experiment(p);
      rp.profile = profile_values(obs.profiler(), seconds_since(t0));
    }
    std::string err;
    if (!load_run_fields(dir_ + "/metrics.json", &rp.fields, &err)) {
      throw std::runtime_error("fig2 metrics.json: " + err);
    }
    rp.trace_bytes = fs::file_size(dir_ + "/trace.json");
    rp.metrics_bytes = fs::file_size(dir_ + "/metrics.json") +
                       fs::file_size(dir_ + "/metrics.csv");
    return rp;
  }

  std::string dir_;
};

// --- farm_churn500. ----------------------------------------------------------

// The qa_farm churn500 preset: ~530 join attempts over 96 slots, a flash
// crowd at 120 s, a mass departure at 300 s, admission and the shed ladder.
class FarmChurn500 : public Workload {
 public:
  static constexpr double kDuration = 600;

  static FarmParams params(uint64_t seed, double duration) {
    FarmParams p;
    p.seed = seed;
    p.slots = 96;
    p.duration = TimeDelta::from_sec(duration);
    p.bottleneck_bw = Rate::kilobytes_per_sec(400);
    p.stream_layers = 4;
    p.layer_rate = Rate::kilobytes_per_sec(2.5);
    p.packet_size = 500;
    p.arrival_rate_hz = 0.8;
    p.mean_session = TimeDelta::seconds(45);
    p.flash_crowd_at = TimeDelta::seconds(120);
    p.flash_crowd_arrivals = 40;
    p.mass_departure_at = TimeDelta::seconds(300);
    p.mass_departure_fraction = 0.5;
    return p;
  }

  double sim_seconds() const override { return kDuration; }
  void setup(uint64_t seed) override { run_farm(params(seed, 0.05)); }
  std::string run(uint64_t seed) override {
    return hex64(farm_digest(run_farm(params(seed, kDuration))));
  }
  Check check(uint64_t seed) override {
    MetricsRegistry reg;
    FarmParams p = params(seed, kDuration);
    p.registry = &reg;
    const FarmResult r = run_farm(p);
    Check c;
    c.result_digest = hex64(farm_digest(r));
    c.pinned_digest = c.result_digest;
    c.packets = r.total_packets_received;
    // Per-session adapter summaries are folded into shared histograms.
    const Histogram& adds = reg.histogram("farm.adapter.adds");
    const Histogram& drops = reg.histogram("farm.adapter.drops");
    const Histogram& eff = reg.histogram("farm.adapter.mean_efficiency");
    c.counts["core.adds"] = adds.sum();
    c.counts["core.drops"] = drops.sum();
    c.counts["core.efficiency"] = eff.mean();
    c.counts["farm.arrivals"] = static_cast<double>(r.arrivals);
    c.counts["farm.admitted"] = static_cast<double>(r.admitted);
    c.counts["farm.peak_active"] = r.peak_active;
    c.counts["farm.packets"] = static_cast<double>(r.total_packets_received);
    c.counts["farm.session_s"] = r.session_seconds;
    c.sanity["rebuffer_rate"] = r.aggregate_rebuffer_rate;
    c.sanity["core_efficiency"] = eff.mean();
    c.sanity["admitted"] = static_cast<double>(r.admitted);
    return c;
  }
  // run_farm exposes no scheduler, so the traced replay only attaches the
  // registry; the farm's per-layer numbers are counts.
  Values traced(uint64_t seed) override {
    MetricsRegistry reg;
    FarmParams p = params(seed, kDuration);
    p.registry = &reg;
    const auto t0 = Clock::now();
    run_farm(p);
    return Values{{"wall_ms", seconds_since(t0) * 1e3}};
  }
};

// --- qa_tracedrive. ----------------------------------------------------------

// Seeded random_backoff_trajectory sessions replayed against the adapter
// with no packet network.
class QaTracedrive : public Workload {
 public:
  static constexpr int kSessions = 16;
  static constexpr double kDuration = 600;  // per session
  static constexpr double kPacketBytes = 1000;

  double sim_seconds() const override { return kSessions * kDuration; }
  void setup(uint64_t seed) override { sessions(seed); }
  std::string run(uint64_t seed) override {
    FieldDigest d;
    int i = 0;
    for (const DriveSession& s : sessions(seed)) {
      const tracedrive::TraceRunResult r =
          tracedrive::run_trace(s.traj, s.cfg, kDuration, kPacketBytes);
      digest_session(d, std::to_string(i++), r.metrics, r.packets_sent);
    }
    return d.hex();
  }
  Check check(uint64_t seed) override {
    Check c;
    c.result_digest = run(seed);
    FieldDigest d;
    Values sum;
    double efficiency = 0;
    int i = 0;
    for (const DriveSession& s : sessions(seed)) {
      const Drive dr = drive(s, /*calls=*/true, /*time_backoffs=*/false);
      digest_session(d, std::to_string(i++), dr.metrics, dr.media);
      add_into(sum, dr.counts);
      efficiency += dr.metrics.mean_efficiency() / kSessions;
    }
    // The benchmark's own replay loop must reproduce run_trace exactly, or
    // its per-layer timings would describe different work.
    c.sanity["replay_matches_run_trace"] = d.hex() == c.result_digest ? 1 : 0;
    c.pinned_digest = c.result_digest;
    c.packets = static_cast<int64_t>(sum["core.decisions"]);
    c.counts = sum;
    c.counts["core.padding_frac"] = sum["padding"] / sum["core.decisions"];
    c.counts.erase("padding");
    c.counts["core.efficiency"] = efficiency;
    c.sanity["core_efficiency"] = efficiency;
    return c;
  }
  // Each session's send loop runs twice, once with the adapter calls and
  // once without, each timed whole. The difference is the adapter's time
  // with no clock read per call; backoff batches are timed on their own.
  Values traced(uint64_t seed) override {
    static const double pair_ns = clock_pair_ns();
    Values sum;
    const auto t0 = Clock::now();
    for (const DriveSession& s : sessions(seed)) {
      const auto t1 = Clock::now();
      const Drive full = drive(s, /*calls=*/true, /*time_backoffs=*/true);
      const double full_ms = seconds_since(t1) * 1e3;
      const auto t2 = Clock::now();
      drive(s, /*calls=*/false, /*time_backoffs=*/false);
      const double loop_ms = seconds_since(t2) * 1e3;
      const double clock_ms =
          static_cast<double>(full.backoff_batches) * pair_ns * 1e-6;
      add_into(sum, full.counts);
      sum["core.fill.ms"] += full_ms - loop_ms - full.backoff_ms;
      sum["core.backoff.ms"] += full.backoff_ms - clock_ms;
    }
    sum["wall_ms"] = seconds_since(t0) * 1e3;
    sum.erase("padding");
    return sum;
  }

 private:
  struct DriveSession {
    core::AimdTrajectory traj;
    core::AdapterConfig cfg;
  };

  // Stratified: session i runs Kmax 1 + i % 4 at a mean random-backoff
  // interval of 3, 5, 8 or 12 s; the seed jitters rate, slope and cap by
  // up to 10% and draws the backoff times. Every input thus carries the
  // same mix of loss regimes, and inputs differ in detail, not in load.
  static std::vector<DriveSession> sessions(uint64_t seed) {
    constexpr double kMeanBackoff[] = {3, 5, 8, 12};
    Rng rng(seed);
    std::vector<DriveSession> out;
    for (int i = 0; i < kSessions; ++i) {
      const double initial = 20'000 * rng.uniform(0.9, 1.1);
      const double slope = 8'000 * rng.uniform(0.9, 1.1);
      const double cap = 70'000 * rng.uniform(0.9, 1.1);
      const double mean_backoff = kMeanBackoff[i / 4];
      Rng traj_rng(rng.next_u64());
      core::AdapterConfig cfg;
      cfg.consumption_rate = 10'000;
      cfg.max_layers = 8;
      cfg.kmax = 1 + i % 4;
      out.push_back(DriveSession{
          tracedrive::random_backoff_trajectory(initial, slope, cap, kDuration,
                                                mean_backoff, traj_rng),
          cfg});
    }
    return out;
  }

  static void digest_session(FieldDigest& d, const std::string& id,
                             const core::AdapterMetrics& m, int64_t media) {
    d.count(id + ".packets", media);
    d.count(id + ".drops", static_cast<int64_t>(m.drops().size()));
    d.count(id + ".adds", static_cast<int64_t>(m.adds().size()));
    d.real(id + ".efficiency", m.mean_efficiency());
  }

  struct Drive {
    core::AdapterMetrics metrics;
    int64_t media = 0;
    Values counts;
    double backoff_ms = 0;  // clock reads included
    int64_t backoff_batches = 0;
  };

  // What a back-to-back pair of clock reads measures, in ns: the part of
  // a timed interval that is the clock's own.
  static double clock_pair_ns() {
    constexpr int kPairs = 100'000;
    int64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = Clock::now();
      total += (Clock::now() - t0).count();
    }
    return static_cast<double>(total) / kPairs;
  }

  // run_trace's send loop (2 ms steps, byte credit, backoffs delivered at
  // step granularity) without its series sampling. With `calls` false the
  // loop steps, accrues credit and reads the trajectory as before but
  // makes no adapter calls. With `time_backoffs` each step's backoff
  // calls are timed as one batch; there are at most about 200 per session.
  static Drive drive(const DriveSession& s, bool calls, bool time_backoffs) {
    constexpr double kStepSec = 0.002;
    core::QualityAdapter adapter(s.cfg);
    adapter.begin(TimePoint::origin());
    const double slope = s.traj.slope();
    const auto& backoffs = s.traj.backoff_times();
    size_t backoff_idx = 0;
    double credit = 0;
    int64_t decisions = 0, padding = 0;
    Drive d;
    int64_t backoff_ns = 0;
    const auto steps = static_cast<int64_t>(kDuration / kStepSec);
    for (int64_t step = 0; step < steps; ++step) {
      const double t = static_cast<double>(step) * kStepSec;
      const TimePoint now = TimePoint::from_sec(t);
      if (backoff_idx < backoffs.size() && backoffs[backoff_idx] <= t) {
        const auto t0 = time_backoffs ? Clock::now() : Clock::time_point{};
        while (backoff_idx < backoffs.size() && backoffs[backoff_idx] <= t) {
          const double tb = backoffs[backoff_idx++];
          const double rate_b = s.traj.rate_at(tb);
          if (calls) adapter.on_backoff(TimePoint::from_sec(tb), rate_b, slope);
        }
        if (time_backoffs) {
          backoff_ns += (Clock::now() - t0).count();
          ++d.backoff_batches;
        }
      }
      const double rate = s.traj.rate_at(t);
      credit += rate * kStepSec;
      while (credit >= kPacketBytes) {
        credit -= kPacketBytes;
        ++decisions;
        if (calls && adapter.on_send_opportunity(now, rate, slope,
                                                 kPacketBytes) ==
                         core::QualityAdapter::kPaddingSlot) {
          ++padding;
        }
      }
    }
    d.metrics = adapter.metrics();
    d.media = decisions - padding;
    d.backoff_ms = static_cast<double>(backoff_ns) * 1e-6;
    d.counts["core.decisions"] = static_cast<double>(decisions);
    d.counts["padding"] = static_cast<double>(padding);
    d.counts["cc.qa.backoffs"] = static_cast<double>(backoffs.size());
    d.counts["core.adds"] = static_cast<double>(d.metrics.adds().size());
    d.counts["core.drops"] = static_cast<double>(d.metrics.drops().size());
    return d;
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir) {
  if (name == "t1_dumbbell") {
    return std::make_unique<T1Dumbbell>(work_dir + "/t1_dumbbell");
  }
  if (name == "farm_churn500") return std::make_unique<FarmChurn500>();
  if (name == "qa_tracedrive") return std::make_unique<QaTracedrive>();
  if (name == "fig2_artifacts") {
    return std::make_unique<Fig2Artifacts>(work_dir + "/fig2_artifacts");
  }
  return nullptr;
}

// Input 0 is the pinned reference; the rest are drawn from --seed.
std::vector<uint64_t> input_seeds(uint64_t seed) {
  constexpr int kDerivedInputs = 3;
  std::vector<uint64_t> out = {1};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  for (int i = 0; i < kDerivedInputs; ++i) {
    out.push_back(2 + rng.next_below(1'000'000));
  }
  return out;
}

// --- JSON output. -------------------------------------------------------------

std::string json_list(const std::vector<double>& xs) {
  std::string s = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_number(xs[i]);
  }
  return s + "]";
}

std::string json_lists(const std::vector<std::vector<double>>& xss) {
  std::string s = "[";
  for (size_t i = 0; i < xss.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_list(xss[i]);
  }
  return s + "]";
}

std::string json_values(const Values& v) {
  std::string s = "{";
  for (const auto& [k, x] : v) {
    if (s.size() > 1) s += ", ";
    s += json_quote(k) + ": " + json_number(x);
  }
  return s + "}";
}

struct Report {
  std::vector<uint64_t> inputs;
  std::vector<double> setup_s;
  std::vector<Check> checks;
  // Per input: bare replay walls (s); in a traced run also the traced and
  // baseline replays.
  std::vector<std::vector<double>> bare, traced, baseline;
  Values layer_sums;  // additive traced values over all traced replays
  int64_t replays = 0;
  int64_t digest_mismatches = 0;
  std::string error;
};

std::string to_json(const std::string& workload, const Workload* w,
                    const Report& r) {
  std::string s = "{\"workload\": " + json_quote(workload);
  s += ", \"sim_s_per_replay\": " + json_number(w ? w->sim_seconds() : 0.0);
  s += ", \"inputs\": [";
  for (size_t i = 0; i < r.inputs.size(); ++i) {
    s += (i ? ", " : "") + json_number(r.inputs[i]);
  }
  s += "], \"setup_s\": " + json_list(r.setup_s);
  s += ", \"bare_s\": " + json_lists(r.bare);
  s += ", \"traced_s\": " + json_lists(r.traced);
  s += ", \"baseline_s\": " + json_lists(r.baseline);
  s += ", \"layer_sums\": " + json_values(r.layer_sums);
  s += ", \"checks\": [";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    s += (i ? ", " : "") + std::string("{\"result_digest\": ") +
         json_quote(c.result_digest) +
         ", \"pinned_digest\": " + json_quote(c.pinned_digest) +
         ", \"packets\": " + json_number(c.packets) +
         ", \"counts\": " + json_values(c.counts) +
         ", \"sanity\": " + json_values(c.sanity) + "}";
  }
  s += "], \"replays\": " + json_number(r.replays);
  s += ", \"digest_mismatches\": " + json_number(r.digest_mismatches);
  s += ", \"peak_rss_mb\": " +
       json_number(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  s += ", \"host_cpus\": " + json_number(int64_t{host_cpu_count()});
  s += ", \"compiler\": " + json_quote(PERFBENCH_COMPILER);
  s += ", \"build_type\": " + json_quote(PERFBENCH_BUILD_TYPE);
  s += ", \"error\": " + (r.error.empty() ? "null" : json_quote(r.error));
  return s + "}";
}

void measure(Workload& w, uint64_t seed, double seconds, bool trace,
             Report& r) {
  // Set-up probes run in batches after each input's replays, so they see
  // the same warm process and the same host load as the replays; one
  // sample is a batch's mean.
  constexpr int kSetupBatch = 10;
  r.inputs = input_seeds(seed);
  const size_t n = r.inputs.size();
  for (uint64_t in : r.inputs) {
    r.checks.push_back(w.check(in));
    ++r.replays;
  }
  r.bare.resize(n);
  if (trace) {
    r.traced.resize(n);
    if (w.has_baseline()) r.baseline.resize(n);
  }
  const auto start = Clock::now();
  do {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t in = r.inputs[i];
      if (trace) {
        const auto t0 = Clock::now();
        add_into(r.layer_sums, w.traced(in));
        r.traced[i].push_back(seconds_since(t0));
        ++r.replays;
        if (w.has_baseline()) {
          const auto t1 = Clock::now();
          w.baseline(in);
          r.baseline[i].push_back(seconds_since(t1));
          ++r.replays;
        }
      }
      const auto t0 = Clock::now();
      const std::string digest = w.run(in);
      r.bare[i].push_back(seconds_since(t0));
      ++r.replays;
      if (digest != r.checks[i].result_digest) ++r.digest_mismatches;

      const auto t1 = Clock::now();
      for (int k = 0; k < kSetupBatch; ++k) w.setup(in);
      r.setup_s.push_back(seconds_since(t1) / kSetupBatch);
    }
  } while (seconds_since(start) < seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.get_or("workload", "");
  const auto seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string work_dir = flags.get_or("work-dir", "");
  if (work_dir.empty() || !flags.unused().empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(name, work_dir);
  if (!w) {
    std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                 name.c_str());
    return 2;
  }
  Report r;
  try {
    fs::create_directories(work_dir);
    measure(*w, seed, seconds, trace, r);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  std::printf("%s\n", to_json(name, w.get(), r).c_str());
  return 0;
}
