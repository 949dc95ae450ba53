#include "app/tool_flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/baseline_policies.h"
#include "util/host.h"

namespace qa::app {

namespace {

const char* name_of(cc::Backend b) { return cc::to_string(b); }
const char* name_of(core::AllocationPolicy p) { return core::policy_name(p); }
std::span<const cc::Backend> all_values(cc::Backend) {
  return cc::all_backends();
}
std::span<const core::AllocationPolicy> all_values(core::AllocationPolicy) {
  return core::kAllPolicies;
}

// "bottleneck-kbps K" -> "bottleneck-kbps".
std::string name(const char* flag) {
  return std::string(flag, std::strcspn(flag, " "));
}

// The enumerator named `got`, else the invalid_choice() error.
template <typename T>
T choice(const char* flag, const std::string& got) {
  std::vector<std::string> valid;
  for (const T v : all_values(T{})) {
    if (got == name_of(v)) return v;
    valid.emplace_back(name_of(v));
  }
  throw std::invalid_argument(invalid_choice("--" + name(flag), got, valid));
}

template <typename T>
std::string show(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "on" : "off";
  } else if constexpr (std::is_enum_v<T>) {
    return name_of(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(v));
    return buf;
  }
}

// A numeric flag's domain: finite, and between `lo` and `hi`, each end
// open or closed. The default is every finite number.
struct Domain {
  double lo = -HUGE_VAL;
  bool lo_closed = true;
  double hi = HUGE_VAL;
  bool hi_closed = true;
};
constexpr Domain above(double lo) { return {lo, false}; }
constexpr Domain at_least(double lo) { return {lo, true}; }
constexpr Domain closed(double lo, double hi) { return {lo, true, hi, true}; }
constexpr Domain half_open(double lo, double hi) {
  return {lo, true, hi, false};
}

bool contains(const Domain& d, double x) {
  return std::isfinite(x) && (d.lo_closed ? x >= d.lo : x > d.lo) &&
         (d.hi_closed ? x <= d.hi : x < d.hi);
}

// "finite and > 0", "in [0, 1)", ">= 1" (integers are always finite).
template <typename T>
std::string range_text(const Domain& d) {
  std::string bounds;
  if (std::isfinite(d.hi)) {
    bounds = std::string("in ") + (d.lo_closed ? "[" : "(") + show(d.lo) +
             ", " + show(d.hi) + (d.hi_closed ? "]" : ")");
  } else if (std::isfinite(d.lo)) {
    bounds = (d.lo_closed ? ">= " : "> ") + show(d.lo);
  }
  if (!std::is_floating_point_v<T>) return bounds;
  return bounds.empty() ? "finite" : "finite and " + bounds;
}

// `v`, read from `flag`, unless it lies outside `domain`: then the
// std::invalid_argument naming the flag, its range and the value.
template <typename T>
T checked(const char* flag, T v, const Domain& domain) {
  if (contains(domain, static_cast<double>(v))) return v;
  throw std::invalid_argument("--" + name(flag) + " must be " +
                              range_text<T>(domain) + " (got " + show(v) +
                              ")");
}

// One number or list element; it must parse in full and lie in `domain`.
template <typename T>
T number(const char* flag, const std::string& token, const Domain& domain) {
  return checked(flag, parse_number<T>(name(flag), token), domain);
}

// Each params type lists its flags once, in a visit_* function below, as
// visit("name METAVAR", "help", &field[, unit], domain). Every numeric
// flag names its domain; switches and enumerated choices have none. The
// one visitor either reads every flag into its field or appends every
// flag's usage line with the field's value as the default, so a flag's
// parser and its --help line cannot disagree on name, field or unit.
// Reading writes a field only when its flag is set: an absent flag leaves
// the preset's value bit-identical (no unit round trip). A value that does
// not parse in full, or lies outside its domain, makes the reader throw.
class FlagVisitor {
 public:
  // Reads `*flags`; with nullptr, collects usage lines in `text` instead.
  explicit FlagVisitor(const Flags* flags) : flags_(flags) {}

  std::string text;

  // A switch or an enumerated choice.
  template <typename T>
  void operator()(const char* flag, const char* help, T* field) {
    static_assert(std::is_same_v<T, bool> || std::is_enum_v<T>);
    if (flags_ == nullptr) return line(flag, help, show(*field));
    if constexpr (std::is_same_v<T, bool>) {
      *field = flags_->get_bool(name(flag), *field);
    } else if (const auto v = flags_->get(name(flag))) {
      *field = choice<T>(flag, *v);
    }
  }
  // A plain number.
  template <typename T>
  void operator()(const char* flag, const char* help, T* field,
                  const Domain& domain) {
    static_assert(std::is_arithmetic_v<T>);
    if (flags_ == nullptr) return line(flag, help, show(*field));
    if (const auto v = flags_->get(name(flag))) {
      *field = number<T>(flag, *v, domain);
    }
  }
  // `unit` maps the flag's number to a Rate (Rate::kilobits_per_sec, ...).
  void operator()(const char* flag, const char* help, Rate* field,
                  Rate (*unit)(double), const Domain& domain) {
    if (flags_ == nullptr) {
      return line(flag, help, show(field->bps() / unit(1).bps()));
    }
    if (const auto v = flags_->get(name(flag))) {
      *field = unit(number<double>(flag, *v, domain));
    }
  }
  // `per_sec` flag units per second: 1 for seconds, 1000 for milliseconds.
  void operator()(const char* flag, const char* help, TimeDelta* field,
                  double per_sec, const Domain& domain) {
    if (flags_ == nullptr) {
      return line(flag, help, show(field->sec() * per_sec));
    }
    if (const auto v = flags_->get(name(flag))) {
      *field = TimeDelta::from_sec(number<double>(flag, *v, domain) / per_sec);
    }
  }
  // Sweep axes: comma-separated lists of numbers, each in `domain`...
  template <typename T>
  void operator()(const char* flag, const char* help, std::vector<T>* field,
                  const Domain& domain) {
    list(flag, help, field, [&](const std::string& token) {
      return number<T>(flag, token, domain);
    });
  }
  // ...or of enumerated choices.
  template <typename T>
  void operator()(const char* flag, const char* help, std::vector<T>* field) {
    static_assert(std::is_enum_v<T>);
    list(flag, help, field, [&](const std::string& token) {
      return choice<T>(flag, token);
    });
  }

 private:
  template <typename T, typename Element>
  void list(const char* flag, const char* help, std::vector<T>* field,
            const Element& element) {
    if (flags_ == nullptr) {
      std::string values;
      for (const T v : *field) {
        if (!values.empty()) values += ',';
        values += show(v);
      }
      return line(flag, help, values);
    }
    const auto v = flags_->get(name(flag));
    if (!v) return;
    std::vector<T> parsed;
    for (size_t pos = 0; pos <= v->size();) {
      const size_t comma = std::min(v->find(',', pos), v->size());
      parsed.push_back(element(v->substr(pos, comma - pos)));
      pos = comma + 1;
    }
    *field = std::move(parsed);
  }
  void line(const char* flag, const char* help, const std::string& def) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "  --%-20s %s (default %s)\n", flag, help,
                  def.c_str());
    text += buf;
  }

  const Flags* flags_;
};

// The scenario fields no sweep axis covers.
void visit_base_flags(FlagVisitor& visit, ExperimentParams* p) {
  visit("duration-s SECS", "run length", &p->duration_sec, above(0));
  visit("rap-flows N", "RAP flows incl. the QA one", &p->rap_flows,
        at_least(1));
  visit("tcp-flows N", "competing TCP flows", &p->tcp_flows, at_least(0));
  visit("cbr", "CBR step at a fraction of the bottleneck", &p->with_cbr);
  visit("layers N", "stream layers", &p->stream_layers, above(0));
  visit("layer-rate BPS", "per-layer consumption C", &p->layer_rate,
        &Rate::bytes_per_sec, above(0));
  visit("queue-bytes B", "bottleneck queue, 0 = one BDP",
        &p->bottleneck_queue_bytes, at_least(0));
  visit("red", "RED bottleneck instead of drop-tail", &p->red_bottleneck);
  visit("allocation P", "optimal | equal-share | base-only", &p->allocation);
  visit("packet-size B", "data packet size", &p->packet_size, above(0));
}

void visit_experiment_flags(FlagVisitor& visit, ExperimentParams* p) {
  visit("backend NAME", "QA-flow congestion control: rap, tfrc, nada",
        &p->backend);
  visit("seed N", "RNG seed", &p->seed, Domain{});
  visit("kmax N", "max backoffs survivable, K_max", &p->kmax, above(0));
  visit("bottleneck-kbps K", "bottleneck bandwidth", &p->bottleneck,
        &Rate::kilobits_per_sec, above(0));
  visit("rtt-ms MS", "round-trip propagation", &p->rtt, 1000.0, above(0));
  visit("faults N", "random fault-schedule intensity", &p->random_faults,
        at_least(0));
  visit_base_flags(visit, p);
}

void visit_sweep_axes(FlagVisitor& visit, SweepGrid* g) {
  visit("seeds LIST", "base RNG seeds", &g->seeds, Domain{});
  visit("kmax LIST", "K_max values", &g->kmax, above(0));
  visit("bottleneck-kbps LIST", "bottleneck bandwidths", &g->bottleneck_kbps,
        above(0));
  visit("rtt-ms LIST", "round-trip times", &g->rtt_ms, above(0));
  visit("loss LIST", "Bernoulli wire-loss rates", &g->loss_rate,
        half_open(0, 1));
  visit("faults LIST", "random fault counts", &g->faults, at_least(0));
  visit("backends LIST", "QA-flow congestion control", &g->backends);
}

void visit_farm_flags(FlagVisitor& visit, FarmParams* p) {
  visit("backend NAME", "session congestion control: rap, tfrc, nada",
        &p->backend);
  visit("seed N", "farm seed", &p->seed, Domain{});
  visit("slots N", "concurrent-session capacity", &p->slots, at_least(1));
  visit("duration-s SECS", "simulated duration", &p->duration, 1.0, above(0));
  visit("bottleneck-kbps K", "shared bottleneck bandwidth", &p->bottleneck_bw,
        &Rate::kilobits_per_sec, above(0));
  visit("rtt-ms MS", "base round-trip propagation", &p->rtt, 1000.0,
        above(0));
  visit("layers N", "stream layers", &p->stream_layers, above(0));
  visit("layer-rate BPS", "per-layer consumption C", &p->layer_rate,
        &Rate::bytes_per_sec, above(0));
  visit("packet-size B", "data packet size", &p->packet_size, above(0));
  visit("arrival-rate HZ", "Poisson arrival rate", &p->arrival_rate_hz,
        above(0));
  visit("mean-session-s SECS", "mean exponential session lifetime",
        &p->mean_session, 1.0, above(0));
  visit("flash-crowd-at SECS", "flash-crowd instant, <0 disables",
        &p->flash_crowd_at, 1.0, Domain{});
  visit("flash-crowd-n N", "arrivals in the flash crowd",
        &p->flash_crowd_arrivals, at_least(0));
  visit("mass-departure-at SECS", "mass-departure instant, <0 disables",
        &p->mass_departure_at, 1.0, Domain{});
  visit("mass-departure-frac F", "fraction of active sessions departing",
        &p->mass_departure_fraction, closed(0, 1));
  visit("outage-at SECS", "bottleneck outage start, <0 disables",
        &p->outage_at, 1.0, Domain{});
  visit("outage-s SECS", "outage duration", &p->outage, 1.0, at_least(0));
  visit("sample-dt SECS", "aggregate sample period", &p->sample_dt, 1.0,
        above(0));
}

void visit_chaos_flags(FlagVisitor& visit, ChaosParams* p, int* seeds) {
  visit("seeds N", "number of seeds to sweep", seeds, at_least(1));
  visit("first-seed N", "first seed", &p->seed, Domain{});
  visit("faults N", "faults per schedule", &p->faults, at_least(1));
  visit("warmup SECS", "clean warmup before faults", &p->warmup, 1.0,
        at_least(0));
  visit("window SECS", "fault window length", &p->fault_window, 1.0,
        above(0));
  visit("tail SECS", "clean tail after faults", &p->tail, 1.0, above(0));
  visit("recovery-bound SECS", "max recovery time after window",
        &p->recovery_bound, 1.0, at_least(0));
  visit("bottleneck-kbps K", "bottleneck bandwidth", &p->bottleneck,
        &Rate::kilobits_per_sec, above(0));
  visit("layers N", "stream layers", &p->stream_layers, above(0));
  visit("layer-rate BPS", "per-layer consumption C", &p->layer_rate,
        &Rate::bytes_per_sec, above(0));
}

}  // namespace

void read_experiment_flags(const Flags& flags, ExperimentParams* params) {
  FlagVisitor read(&flags);
  visit_experiment_flags(read, params);
}

std::string experiment_flags_usage(ExperimentParams defaults) {
  FlagVisitor usage(nullptr);
  visit_experiment_flags(usage, &defaults);
  return usage.text;
}

void read_sweep_flags(const Flags& flags, SweepGrid* grid, SweepOptions* opts) {
  if (const auto v = flags.get("preset")) *grid = SweepGrid::preset(*v);
  FlagVisitor read(&flags);
  visit_sweep_axes(read, grid);
  visit_base_flags(read, &grid->base);
  opts->jobs = host_cpu_count();
  if (const auto v = flags.get("jobs")) {
    opts->jobs = number<int>("jobs", *v, at_least(1));
  }
  opts->out_dir = flags.get_or("out-dir", opts->out_dir);
  if (const auto v = flags.get("shard")) {
    int index = -1;
    int count = 0;
    char tail = 0;
    if (std::sscanf(v->c_str(), "%d/%d%c", &index, &count, &tail) != 2 ||
        index < 0 || index >= count) {
      throw std::invalid_argument("bad --shard '" + *v +
                                  "' (want I/K, 0<=I<K)");
    }
    opts->shard_index = index;
    opts->shard_count = count;
  }
}

std::string sweep_flags_usage(SweepGrid defaults) {
  FlagVisitor usage(nullptr);
  usage.text =
      "  Grid axes (comma lists; the grid is their cartesian product):\n";
  visit_sweep_axes(usage, &defaults);
  usage.text += "  Base scenario:\n";
  visit_base_flags(usage, &defaults.base);
  return usage.text +
         "  --preset NAME          fig12 | fig13 (axis/base bundle; explicit\n"
         "                         flags override)\n"
         "  Execution:\n"
         "  --jobs N               worker threads (default: host cores)\n"
         "  --out-dir DIR          write sweep.csv/sweep.json/manifest.json\n"
         "  --shard I/K            run grid indices congruent to I mod K\n";
}

void read_farm_flags(const Flags& flags, FarmParams* params) {
  if (const auto v = flags.get("preset")) *params = FarmParams::preset(*v);
  FlagVisitor read(&flags);
  visit_farm_flags(read, params);
  params->admission_enabled =
      !flags.get_bool("no-admission", !params->admission_enabled);
  params->ladder_enabled =
      !flags.get_bool("no-ladder", !params->ladder_enabled);
}

std::string farm_flags_usage(FarmParams defaults) {
  FlagVisitor usage(nullptr);
  usage.text =
      "  --preset NAME          smoke | churn500 | overload (default smoke)\n";
  visit_farm_flags(usage, &defaults);
  return usage.text +
         "  --no-admission         disable the admission controller\n"
         "  --no-ladder            disable the load-shedding ladder\n";
}

void read_chaos_flags(const Flags& flags, ChaosParams* params, int* seeds) {
  FlagVisitor read(&flags);
  visit_chaos_flags(read, params, seeds);
}

std::string chaos_flags_usage(ChaosParams defaults, int seeds) {
  FlagVisitor usage(nullptr);
  visit_chaos_flags(usage, &defaults, &seeds);
  return usage.text;
}

FlightRecFlags flightrec_flags(const Flags& flags) {
  FlightRecFlags f;
  f.enabled = flags.get_bool("flightrec", true);
  const int64_t events = flags.get_int("flightrec-events", 1024);
  f.events = static_cast<size_t>(
      checked("flightrec-events", events, at_least(1)));
  return f;
}

ObservabilityConfig observability_flags(const Flags& flags,
                                        const std::string& out_dir) {
  ObservabilityConfig cfg;
  cfg.out_dir = out_dir;
  cfg.trace = flags.get_bool("trace", true);
  cfg.metrics = flags.get_bool("metrics", true);
  cfg.profile = flags.get_bool("profile", true);
  cfg.journeys = flags.get_bool("journeys", true);
  const FlightRecFlags fr = flightrec_flags(flags);
  cfg.flightrec = fr.enabled;
  cfg.flightrec_events = fr.events;
  return cfg;
}

const char* observability_flags_usage() {
  return "  --flightrec-events N   flight-recorder ring size (default 1024)\n"
         "  --no-trace             skip trace.json (metrics/manifest only)\n"
         "  --no-metrics           skip metrics.csv/json\n"
         "  --no-profile           skip the scheduler profiler\n"
         "  --no-journeys          skip packet-journey tracing\n"
         "  --no-flightrec         skip the crash-time flight recorder\n";
}

}  // namespace qa::app
