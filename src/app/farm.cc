#include "app/farm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "app/admission.h"
#include "app/session.h"
#include "sim/fault.h"
#include "sim/topology.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qa::app {

namespace {

// The farm run engine. One instance per run_farm call; everything hangs off
// the one Scheduler inside net_, so the whole farm — churn, sampling,
// ladder actions, retries — is a single deterministic event sequence.
class Farm {
 public:
  explicit Farm(const FarmParams& params)
      : params_(params),
        arrival_rng_(derive_seed(params.seed, 0x61727269)),   // "arri"
        lifetime_rng_(derive_seed(params.seed, 0x6c696665)),  // "life"
        pick_rng_(derive_seed(params.seed, 0x7069636b)),      // "pick"
        admission_(params.seed),
        injector_(&net_.scheduler()) {
    QA_CHECK(params_.slots >= 1);
    QA_CHECK(params_.duration > TimeDelta::zero());
    QA_CHECK(params_.arrival_rate_hz > 0);
    QA_CHECK(params_.mean_session > TimeDelta::zero());
    QA_CHECK(params_.sample_dt > TimeDelta::zero());

    sim::FarmTopoParams topo_params;
    topo_params.slots = params_.slots;
    topo_params.bottleneck_bw = params_.bottleneck_bw;
    topo_params.rtt = params_.rtt;
    topo_params.bottleneck_queue_bytes = params_.bottleneck_queue_bytes;
    if (topo_params.bottleneck_queue_bytes == 0) {
      // One BDP (the dumbbell default) is sized for a handful of flows; a
      // farm multiplexing dozens needs a couple of packets of queue per
      // slot or every flow sees near-certain drops each round trip.
      const int64_t bdp =
          static_cast<int64_t>(params_.bottleneck_bw.bytes_in(params_.rtt));
      topo_params.bottleneck_queue_bytes =
          std::max(bdp, int64_t{2} * params_.packet_size * params_.slots);
    }
    topo_ = sim::build_farm(net_, topo_params);

    slots_ = std::make_unique<std::optional<Session>[]>(
        static_cast<size_t>(params_.slots));
    info_.resize(static_cast<size_t>(params_.slots));

    // One sample set per access class, fed at session departure: the
    // tails are exact percentiles over every retired session (one double
    // each, a few KB even for churn500).
    int n_classes = 0;
    for (const int c : topo_.access_class) {
      n_classes = std::max(n_classes, c + 1);
    }
    stall_tails_.resize(static_cast<size_t>(n_classes));
    goodput_tails_.resize(static_cast<size_t>(n_classes));

    if (params_.trace != nullptr) {
      params_.trace->name_track(ChromeTraceWriter::kFarmTrack,
                                "farm control");
    }
    if (params_.registry != nullptr) {
      // Created up front so the row exists even in runs where the ladder
      // never leaves kNormal.
      params_.registry->gauge("farm.ladder.level").set(0);
    }
  }

  FarmResult run() {
    schedule_next_arrival();
    schedule_sample();
    if (params_.flash_crowd_at >= TimeDelta::zero() &&
        params_.flash_crowd_arrivals > 0) {
      net_.scheduler().schedule_at(
          TimePoint::origin() + params_.flash_crowd_at,
          [this] {
            for (int i = 0; i < params_.flash_crowd_arrivals; ++i) {
              process_join(next_client_id_++, 0);
            }
          },
          sim::EventCategory::kProbe);
    }
    if (params_.mass_departure_at >= TimeDelta::zero() &&
        params_.mass_departure_fraction > 0) {
      net_.scheduler().schedule_at(
          TimePoint::origin() + params_.mass_departure_at,
          [this] { mass_departure(); }, sim::EventCategory::kProbe);
    }
    if (params_.outage_at >= TimeDelta::zero() &&
        params_.outage > TimeDelta::zero()) {
      injector_.outage(topo_.bottleneck, TimePoint::origin() + params_.outage_at,
                       params_.outage);
    }

    const TimePoint end = TimePoint::origin() + params_.duration;
    net_.run(end);

    // Retire every still-active session at the horizon so quality
    // aggregates cover all streamed time.
    for (int i = 0; i < params_.slots; ++i) {
      if (slots_[static_cast<size_t>(i)].has_value()) retire(i, end, false);
    }
    finalize(end);
    return std::move(result_);
  }

 private:
  struct SlotInfo {
    uint64_t generation = 0;  // bumped on retire; stale departures no-op
    uint64_t admit_seq = 0;   // admission order (the shed rung evicts max)
    TimePoint arrival;
    int64_t last_packets = 0;  // goodput-delta baseline for the sampler
    bool base_only = false;
  };

  static uint64_t derive_seed(uint64_t seed, uint64_t stream) {
    uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
    return splitmix64(state);
  }

  int free_slot() const {
    for (int i = 0; i < params_.slots; ++i) {
      if (!slots_[static_cast<size_t>(i)].has_value()) return i;
    }
    return -1;
  }

  void note(TimePoint now, std::string_view kind, std::string detail_json) {
    if (params_.flightrec != nullptr) {
      params_.flightrec->note(now, kind, std::move(detail_json));
    }
  }

  void emit_verdict(TimePoint now, const char* verdict) {
    if (params_.trace != nullptr) {
      params_.trace->instant(now, ChromeTraceWriter::kFarmTrack,
                             std::string("admission ") + verdict);
    }
    note(now, std::string("farm.admission.") + verdict, "{}");
  }

  int active_count() const { return active_; }

  void schedule_next_arrival() {
    const double gap = arrival_rng_.exponential(1.0 / params_.arrival_rate_hz);
    net_.scheduler().schedule_after(
        TimeDelta::from_sec(gap),
        [this] {
          process_join(next_client_id_++, 0);
          schedule_next_arrival();
        },
        sim::EventCategory::kProbe);
  }

  void maybe_retry(uint64_t client_id, int attempt) {
    if (!admission_.retry_allowed(attempt)) {
      ++result_.retries_abandoned;
      return;
    }
    const TimeDelta delay = admission_.retry_delay(client_id, attempt);
    net_.scheduler().schedule_after(
        delay,
        [this, client_id, attempt] {
          ++result_.retries;
          process_join(client_id, attempt + 1);
        },
        sim::EventCategory::kProbe);
  }

  void process_join(uint64_t client_id, int attempt) {
    ++result_.arrivals;
    const TimePoint now = net_.now();
    const int slot = free_slot();
    if (slot < 0) {
      ++result_.rejected_capacity;
      emit_verdict(now, "reject_capacity");
      maybe_retry(client_id, attempt);
      return;
    }

    AdmissionDecision decision = AdmissionDecision::kAdmit;
    if (params_.admission_enabled) {
      JoinRequest req;
      req.active_sessions = active_;
      req.bottleneck_bps = params_.bottleneck_bw.bps();
      req.access_bps = topo_.access_bw[static_cast<size_t>(slot)].bps();
      req.consumption_rate = params_.layer_rate.bps();
      req.max_layers = params_.stream_layers;
      // RAP's additive increase is one packet per SRTT gained every SRTT.
      req.slope = static_cast<double>(params_.packet_size) /
                  (params_.rtt.sec() * params_.rtt.sec());
      decision = admission_.decide(req);
    }
    if (decision == AdmissionDecision::kReject) {
      ++result_.rejected;
      emit_verdict(now, "reject");
      maybe_retry(client_id, attempt);
      return;
    }

    const bool base_only = decision == AdmissionDecision::kAdmitBaseOnly;
    admit(slot, now, base_only);
    if (base_only) {
      ++result_.admitted_base_only;
      emit_verdict(now, "admit_base_only");
    } else {
      ++result_.admitted;
      emit_verdict(now, "admit");
    }
  }

  void admit(int slot, TimePoint now, bool base_only) {
    SessionConfig scfg;
    scfg.backend = params_.backend;
    scfg.adapter.consumption_rate = params_.layer_rate.bps();
    scfg.adapter.max_layers = base_only ? 1 : params_.stream_layers;
    scfg.cc.packet_size = params_.packet_size;

    const size_t s = static_cast<size_t>(slot);
    slots_[s].emplace(net_, topo_.servers[s], topo_.clients[s], scfg);
    SlotInfo& info = info_[s];
    info.admit_seq = ++admit_counter_;
    info.arrival = now;
    info.last_packets = 0;
    info.base_only = base_only;
    ++active_;
    result_.peak_active = std::max(result_.peak_active, active_);

    // Sessions born under a freeze inherit it; they keep their (base)
    // quality but may not climb until the farm cools off.
    if (ladder_level() >= ShedLevel::kFreezeAdds) {
      slots_[s]->server().adapter().set_adds_frozen(true, now);
    }

    const double life =
        lifetime_rng_.exponential(params_.mean_session.sec());
    const uint64_t gen = info.generation;
    net_.scheduler().schedule_after(
        TimeDelta::from_sec(life),
        [this, slot, gen] {
          const size_t idx = static_cast<size_t>(slot);
          if (!slots_[idx].has_value() || info_[idx].generation != gen) return;
          retire(slot, net_.now(), false);
          ++result_.departures;
        },
        sim::EventCategory::kProbe);
  }

  // Final per-session accounting, metric folding, and slot recycling.
  void retire(int slot, TimePoint now, bool shed) {
    const size_t s = static_cast<size_t>(slot);
    Session& session = *slots_[s];
    SlotInfo& info = info_[s];
    session.client().sync();

    const double lifetime = (now - info.arrival).sec();
    result_.session_seconds += lifetime;
    result_.total_rebuffer_sec += session.client().base_stall().sec();
    result_.total_packets_received += session.client().packets_received();

    const size_t cls = static_cast<size_t>(topo_.access_class[s]);
    stall_tails_[cls].add(session.client().base_stall().sec());
    if (lifetime > 0) {
      goodput_tails_[cls].add(
          static_cast<double>(session.client().packets_received()) *
          static_cast<double>(params_.packet_size) / lifetime);
    }

    if (params_.registry != nullptr) {
      MetricsRegistry& reg = *params_.registry;
      session.server().adapter().metrics().fold_into(reg, "farm.adapter",
                                                     info.arrival, now);
      session.client().rebuffers().fold_into(reg, "farm.rebuffer", now);
      reg.histogram("farm.session.lifetime_s").observe(lifetime);
      reg.histogram("farm.session.layers_at_exit")
          .observe(
              static_cast<double>(session.server().adapter().active_layers()));
    }

    session.stop();
    slots_[s].reset();
    ++info.generation;
    --active_;
    if (shed) {
      ++result_.shed;
      last_shed_ = now;
      shed_happened_ = true;
      if (params_.trace != nullptr) {
        params_.trace->instant(now, ChromeTraceWriter::kFarmTrack,
                               "shed session", {{"slot", slot}});
      }
      note(now, "farm.shed_session",
           "{\"slot\": " + json_number(int64_t{slot}) + "}");
    }
  }

  void mass_departure() {
    const int n = static_cast<int>(std::ceil(
        params_.mass_departure_fraction * static_cast<double>(active_)));
    std::vector<int> occupied;
    occupied.reserve(static_cast<size_t>(active_));
    for (int i = 0; i < params_.slots; ++i) {
      if (slots_[static_cast<size_t>(i)].has_value()) occupied.push_back(i);
    }
    const TimePoint now = net_.now();
    for (int k = 0; k < n && !occupied.empty(); ++k) {
      const size_t pick = static_cast<size_t>(
          pick_rng_.next_below(static_cast<uint64_t>(occupied.size())));
      retire(occupied[pick], now, false);
      ++result_.departures;
      occupied.erase(occupied.begin() + static_cast<long>(pick));
    }
  }

  ShedLevel ladder_level() const { return ladder_.level(); }

  double smooth(std::optional<double>* ewma, double inst, double dt) const {
    if (!ewma->has_value()) {
      *ewma = inst;
    } else {
      // Time constant of the EWMA fed to the ladder. A drop-tail
      // bottleneck's instantaneous occupancy saw-tooths between empty and
      // full under perfectly normal AIMD probing; only a *standing* queue —
      // high occupancy sustained across several sawtooth periods — is an
      // overload signal.
      constexpr TimeDelta kQueueEwmaTau = TimeDelta::seconds(3);
      const double alpha =
          std::min(1.0, dt / std::max(dt, kQueueEwmaTau.sec()));
      **ewma += alpha * (inst - **ewma);
    }
    return **ewma;
  }

  void schedule_sample() {
    net_.scheduler().schedule_after(
        params_.sample_dt,
        [this] {
          sample();
          schedule_sample();
        },
        sim::EventCategory::kProbe);
  }

  void sample() {
    const TimePoint now = net_.now();
    const double dt = params_.sample_dt.sec();

    int rebuffering = 0;
    int layered = 0;
    double layer_sum = 0;
    std::vector<double> goodputs;
    goodputs.reserve(static_cast<size_t>(active_));
    for (int i = 0; i < params_.slots; ++i) {
      const size_t s = static_cast<size_t>(i);
      if (!slots_[s].has_value()) continue;
      Session& session = *slots_[s];
      session.client().sync();
      if (session.client().rebuffering()) ++rebuffering;
      const int64_t packets = session.client().packets_received();
      goodputs.push_back(static_cast<double>(packets -
                                             info_[s].last_packets) *
                         static_cast<double>(params_.packet_size) / dt);
      info_[s].last_packets = packets;
      const int layers = session.server().adapter().active_layers();
      if (layers > 0) {
        ++layered;
        layer_sum += static_cast<double>(layers);
      }
    }

    FarmSample sm;
    sm.t_sec = now.sec();
    sm.active = active_;
    // Both ladder signals are EWMA-smoothed: instantaneous point samples
    // of a drop-tail queue (or of who happens to be paused right now)
    // sawtooth by nature, and a ladder fed raw samples flaps on noise.
    const double rebuffer_inst =
        active_ > 0 ? static_cast<double>(rebuffering) /
                          static_cast<double>(active_)
                    : 0.0;
    sm.rebuffer_frac = smooth(&rebuffer_ewma_, rebuffer_inst, dt);
    sm.jain = goodputs.empty() ? 1.0 : jain_fairness(goodputs);
    sm.queue_inst_frac =
        static_cast<double>(topo_.bottleneck->queue().bytes()) /
        static_cast<double>(topo_.bottleneck_queue_bytes);
    sm.queue_frac = smooth(&queue_ewma_, sm.queue_inst_frac, dt);
    sm.mean_layers =
        layered > 0 ? layer_sum / static_cast<double>(layered) : 0.0;

    if (params_.ladder_enabled) {
      apply_ladder(now, sm.queue_frac, sm.rebuffer_frac);
    }
    sm.shed_level = static_cast<int>(ladder_level());
    result_.max_shed_level =
        std::max(result_.max_shed_level, sm.shed_level);

    if (params_.trace != nullptr) {
      params_.trace->counter(now, ChromeTraceWriter::kFarmTrack,
                             "farm active", "sessions",
                             static_cast<double>(sm.active));
      params_.trace->counter(now, ChromeTraceWriter::kFarmTrack,
                             "farm shed level", "level",
                             static_cast<double>(sm.shed_level));
      params_.trace->counter(now, ChromeTraceWriter::kFarmTrack,
                             "farm queue", "frac", sm.queue_frac);
    }
    if (params_.registry != nullptr) {
      params_.registry->gauge("farm.active").set(
          static_cast<double>(sm.active));
      params_.registry->gauge("farm.rebuffer_frac").set(sm.rebuffer_frac);
      params_.registry->gauge("farm.queue_frac").set(sm.queue_frac);
    }

    result_.series.push_back(sm);
  }

  void apply_ladder(TimePoint now, double queue_frac, double rebuffer_frac) {
    const ShedLevel prev = ladder_.level();
    const ShedLevel level = ladder_.update(now, queue_frac, rebuffer_frac);

    // Newcomers are turned away while the farm is actively degrading its
    // existing sessions, and for a cooldown after any eviction — admitting
    // the retry crowd right after shedding is exactly the oscillation the
    // acceptance test forbids.
    constexpr TimeDelta kShedCooldown = TimeDelta::seconds(20);
    const bool cooling = shed_happened_ && now - last_shed_ < kShedCooldown;
    admission_.set_shedding(level >= ShedLevel::kBaseOnly || cooling);

    if (level != prev) {
      const int level_int = static_cast<int>(level);
      if (params_.registry != nullptr) {
        params_.registry->gauge("farm.ladder.level")
            .set(static_cast<double>(level_int));
      }
      if (params_.trace != nullptr) {
        params_.trace->instant(
            now, ChromeTraceWriter::kFarmTrack,
            std::string("shed_level ") + to_string(level),
            {{"from", static_cast<int>(prev)}, {"to", level_int}});
        params_.trace->counter(now, ChromeTraceWriter::kFarmTrack,
                               "farm shed level", "level",
                               static_cast<double>(level_int));
      }
      note(now, "farm.ladder.transition",
           "{\"from\": " + json_quote(to_string(prev)) +
               ", \"to\": " + json_quote(to_string(level)) + "}");

      const bool freeze = level >= ShedLevel::kFreezeAdds;
      const bool base_only = level >= ShedLevel::kBaseOnly;
      for (int i = 0; i < params_.slots; ++i) {
        const size_t s = static_cast<size_t>(i);
        if (!slots_[s].has_value()) continue;
        core::QualityAdapter& adapter = slots_[s]->server().adapter();
        adapter.set_adds_frozen(freeze, now);
        // enter/exit_degraded needs a begun adapter; a session that has
        // not sent its first packet yet has nothing to shed anyway.
        if (adapter.active_layers() > 0) {
          if (base_only && !adapter.degraded()) {
            adapter.enter_degraded(now);
          } else if (!base_only && adapter.degraded()) {
            adapter.exit_degraded(now);
          }
        }
      }
    }

    // Top rung: evict the newest session, one per tick, and only while the
    // harm signal is still at its high-water mark — shedding stops the
    // moment the overload visibly breaks, not when the ladder gets around
    // to de-escalating.
    const bool still_hot = rebuffer_frac >= kRebufferHi;
    if (level == ShedLevel::kShedSessions && still_hot && active_ > 0) {
      int newest = -1;
      uint64_t newest_seq = 0;
      for (int i = 0; i < params_.slots; ++i) {
        const size_t s = static_cast<size_t>(i);
        if (!slots_[s].has_value()) continue;
        if (newest < 0 || info_[s].admit_seq > newest_seq) {
          newest = i;
          newest_seq = info_[s].admit_seq;
        }
      }
      if (newest >= 0) retire(newest, now, true);
    }
  }

  void finalize(TimePoint end) {
    result_.gate_transitions = admission_.gate_transitions();
    result_.escalations = ladder_.escalations();
    result_.deescalations = ladder_.deescalations();
    result_.oscillation_events = ladder_.oscillation_events();
    result_.aggregate_rebuffer_rate =
        result_.session_seconds > 0
            ? result_.total_rebuffer_sec / result_.session_seconds
            : 0.0;

    double jain_sum = 0;
    int64_t jain_n = 0;
    double active_sum = 0;
    double layer_sum = 0;
    for (const FarmSample& sm : result_.series) {
      active_sum += static_cast<double>(sm.active);
      layer_sum += sm.mean_layers;
      if (sm.active >= 2) {
        jain_sum += sm.jain;
        ++jain_n;
      }
    }
    const double samples = static_cast<double>(result_.series.size());
    result_.mean_active = samples > 0 ? active_sum / samples : 0.0;
    result_.mean_layers = samples > 0 ? layer_sum / samples : 0.0;
    result_.mean_jain =
        jain_n > 0 ? jain_sum / static_cast<double>(jain_n) : 1.0;
    result_.final_jain =
        result_.series.empty() ? 1.0 : result_.series.back().jain;

    if (params_.registry != nullptr) {
      MetricsRegistry& reg = *params_.registry;
      // The run's ledger lives in result_; the registry gets its totals
      // once, here. Every row exists even when it stays 0, keeping the
      // export schema stable.
      reg.counter("farm.arrivals").inc(result_.arrivals);
      reg.counter("farm.admitted").inc(result_.admitted);
      reg.counter("farm.admitted_base_only").inc(result_.admitted_base_only);
      reg.counter("farm.rejected").inc(result_.rejected);
      reg.counter("farm.rejected_capacity").inc(result_.rejected_capacity);
      reg.counter("farm.retries").inc(result_.retries);
      reg.counter("farm.departures").inc(result_.departures);
      reg.counter("farm.shed").inc(result_.shed);
      reg.counter("farm.ladder.escalations").inc(result_.escalations);
      reg.counter("farm.ladder.oscillations").inc(result_.oscillation_events);
      reg.gauge("farm.aggregate_rebuffer_rate")
          .set(result_.aggregate_rebuffer_rate);
      reg.gauge("farm.mean_jain").set(result_.mean_jain);
      reg.gauge("farm.mean_active").set(result_.mean_active);
      reg.gauge("farm.duration_s").set(end.sec());

      // Exact tail percentiles per class, then farm-wide over the classes'
      // samples concatenated in class order.
      const auto export_tails = [&reg](const std::string& base,
                                       const std::vector<SampleSet>&
                                           per_class) {
        SampleSet all;
        for (size_t c = 0; c < per_class.size(); ++c) {
          for (const double x : per_class[c].samples()) all.add(x);
          const std::string cls = base + ".class" + std::to_string(c);
          reg.gauge(cls + ".count")
              .set(static_cast<double>(per_class[c].count()));
          reg.gauge(cls + ".p95").set(per_class[c].percentile(95));
        }
        reg.gauge(base + ".count").set(static_cast<double>(all.count()));
        reg.gauge(base + ".p50").set(all.percentile(50));
        reg.gauge(base + ".p95").set(all.percentile(95));
        reg.gauge(base + ".p99").set(all.percentile(99));
      };
      export_tails("farm.tail.rebuffer_s", stall_tails_);
      export_tails("farm.tail.goodput_Bps", goodput_tails_);
    }
  }

  FarmParams params_;
  sim::Network net_;
  sim::FarmTopo topo_;
  Rng arrival_rng_;
  Rng lifetime_rng_;
  Rng pick_rng_;
  AdmissionController admission_;
  LoadShedLadder ladder_;
  sim::FaultInjector injector_;

  // Slot i streams topo_.servers[i] -> topo_.clients[i]. The optional is
  // the recycling mechanism: emplace on admit, reset on retire — Session is
  // not movable, so the slots live in a fixed array that never reallocates.
  std::unique_ptr<std::optional<Session>[]> slots_;
  std::vector<SlotInfo> info_;
  int active_ = 0;
  uint64_t admit_counter_ = 0;
  uint64_t next_client_id_ = 0;
  // Per-access-class tail samples, fed at retire().
  std::vector<SampleSet> stall_tails_;
  std::vector<SampleSet> goodput_tails_;
  std::optional<double> queue_ewma_;
  std::optional<double> rebuffer_ewma_;
  TimePoint last_shed_;
  bool shed_happened_ = false;
  FarmResult result_;
};

}  // namespace

FarmParams FarmParams::preset(const std::string& name) {
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
    // ~500 join attempts over the run: sized for the determinism
    // acceptance check (same seed => digest-identical).
    p.slots = 96;
    p.duration = TimeDelta::seconds(600);
    p.bottleneck_bw = Rate::kilobytes_per_sec(400);
    p.arrival_rate_hz = 0.8;
    p.mean_session = TimeDelta::seconds(45);
    p.flash_crowd_at = TimeDelta::seconds(120);
    p.flash_crowd_arrivals = 40;
    p.mass_departure_at = TimeDelta::seconds(300);
    p.mass_departure_fraction = 0.5;
  } else if (name == "overload") {
    // Offered load well beyond what the quality model admits: the
    // admission-on/off contrast experiment.
    p.slots = 24;
    p.duration = TimeDelta::seconds(180);
    p.bottleneck_bw = Rate::kilobytes_per_sec(50);
    p.arrival_rate_hz = 0.5;
    p.mean_session = TimeDelta::seconds(60);
  } else {
    throw std::invalid_argument(
        invalid_choice("--preset", name, {"smoke", "churn500", "overload"}));
  }
  return p;
}

FarmResult run_farm(const FarmParams& params) { return Farm(params).run(); }

RunFields farm_fields(const FarmResult& r) {
  RunFields fields;
  const auto counter = [&](const std::string& name, int64_t v) {
    fields["farm." + name + ".value"] =
        RunField{"counter", "value", static_cast<double>(v), false};
  };
  const auto gauge = [&](const std::string& name, double v) {
    fields["farm." + name + ".value"] = RunField{"gauge", "value", v, false};
  };
  counter("arrivals", r.arrivals);
  counter("admitted", r.admitted);
  counter("admitted_base_only", r.admitted_base_only);
  counter("rejected", r.rejected);
  counter("rejected_capacity", r.rejected_capacity);
  counter("retries", r.retries);
  counter("retries_abandoned", r.retries_abandoned);
  counter("gate_transitions", r.gate_transitions);
  counter("departures", r.departures);
  counter("shed", r.shed);
  counter("peak_active", r.peak_active);
  counter("escalations", r.escalations);
  counter("deescalations", r.deescalations);
  counter("oscillation_events", r.oscillation_events);
  counter("max_shed_level", r.max_shed_level);
  counter("samples", static_cast<int64_t>(r.series.size()));
  counter("packets_received", r.total_packets_received);
  gauge("session_seconds", r.session_seconds);
  gauge("total_rebuffer_sec", r.total_rebuffer_sec);
  gauge("aggregate_rebuffer_rate", r.aggregate_rebuffer_rate);
  gauge("mean_jain", r.mean_jain);
  gauge("final_jain", r.final_jain);
  gauge("mean_active", r.mean_active);
  gauge("mean_layers", r.mean_layers);
  // Exact trajectory fingerprints: any drift anywhere in the series moves
  // at least one of these sums.
  double active_sum = 0, jain_sum = 0, queue_sum = 0, rebuf_sum = 0,
         level_sum = 0;
  for (const FarmSample& sm : r.series) {
    active_sum += static_cast<double>(sm.active);
    jain_sum += sm.jain;
    queue_sum += sm.queue_frac;
    rebuf_sum += sm.rebuffer_frac;
    level_sum += static_cast<double>(sm.shed_level);
  }
  gauge("series.active_sum", active_sum);
  gauge("series.jain_sum", jain_sum);
  gauge("series.queue_sum", queue_sum);
  gauge("series.rebuffer_sum", rebuf_sum);
  gauge("series.level_sum", level_sum);
  return fields;
}

uint64_t farm_digest(const FarmResult& r) {
  return canonical_digest(farm_fields(r), RunDiffRules{});
}

void write_farm_series_csv(const FarmResult& r, const std::string& path) {
  CsvWriter csv(path, {"t_sec", "active", "shed_level", "rebuffer_frac",
                       "jain", "queue_frac", "queue_inst_frac",
                       "mean_layers"});
  for (const FarmSample& sm : r.series) {
    csv.row({sm.t_sec, static_cast<double>(sm.active),
             static_cast<double>(sm.shed_level), sm.rebuffer_frac, sm.jain,
             sm.queue_frac, sm.queue_inst_frac, sm.mean_layers});
  }
}

FarmChaosOutcome run_farm_chaos_trial(uint64_t seed,
                                      TimeDelta recovery_budget) {
  FarmParams params;
  params.seed = seed;
  params.slots = 16;
  params.duration = TimeDelta::seconds(90);
  params.bottleneck_bw = Rate::kilobytes_per_sec(100);
  params.rtt = TimeDelta::millis(40);
  params.stream_layers = 4;
  params.layer_rate = Rate::kilobytes_per_sec(2.5);
  params.packet_size = 500;
  params.arrival_rate_hz = 0.4;
  params.mean_session = TimeDelta::seconds(30);
  params.flash_crowd_at = TimeDelta::seconds(20);
  params.flash_crowd_arrivals = 12;
  params.outage_at = TimeDelta::seconds(45);
  params.outage = TimeDelta::seconds(2);

  FarmChaosOutcome out;
  out.result = run_farm(params);
  out.disturbance_end_sec = (params.outage_at + params.outage).sec();

  // Recovery: first post-disturbance sample with (nearly) nobody paused
  // and the ladder back off the destructive rungs.
  for (const FarmSample& sm : out.result.series) {
    if (sm.t_sec < out.disturbance_end_sec) continue;
    if (sm.rebuffer_frac <= 0.1 &&
        sm.shed_level <= static_cast<int>(ShedLevel::kFreezeAdds)) {
      out.recovery_sec = sm.t_sec - out.disturbance_end_sec;
      break;
    }
  }
  out.recovered =
      out.recovery_sec >= 0 && out.recovery_sec <= recovery_budget.sec();
  return out;
}

}  // namespace qa::app
