// Observability hub: one object owning a run's exporters — Chrome trace
// writer, metrics registry, scheduler profiler, run manifest — plus the
// wiring from every subsystem's trace points into them.
//
// Usage: construct with an output directory, attach the pieces while the
// scenario is being built (attach_scheduler / attach_link /
// attach_session), run the simulation, then finish() to flush
// trace.json + metrics.{csv,json} + manifest.json. All subscriptions are
// scoped, so the hub detaches cleanly whichever side dies first; callback
// gauges, however, read live objects at snapshot time, so finish() (the
// last snapshot) must run before the attached objects are destroyed.
//
// A default-constructed hub (no output directory) still profiles and
// aggregates metrics but writes no trace file — handy for tests and for
// bench runs that only want the profiler report.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cc/congestion_controller.h"
#include "core/quality_adapter.h"
#include "sim/link.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "util/chrome_trace.h"
#include "util/event.h"
#include "util/flightrec.h"
#include "util/journey.h"
#include "util/manifest.h"
#include "util/metrics_registry.h"

namespace qa::sim {
class FaultInjector;
}  // namespace qa::sim

namespace qa::app {

class Session;
class VideoClient;

struct ObservabilityConfig {
  // Artifact directory (must already exist). Empty: no files are written,
  // finish() only closes the books.
  std::string out_dir;
  bool trace = true;    // write <out_dir>/trace.json (Perfetto-loadable)
  bool metrics = true;  // write <out_dir>/metrics.csv and metrics.json
  bool profile = true;  // attach the scheduler profiler
  // Packet-journey tracing: per-layer OWD/jitter/loss-attribution metrics
  // and per-layer lanes in the Chrome trace.
  bool journeys = true;
  // Flight recorder: a ring of the last `flightrec_events` journey/trace
  // events, dumped to <out_dir>/flightrec.jsonl when a QA_CHECK or
  // invariant fails mid-run (path recorded in the manifest).
  bool flightrec = true;
  size_t flightrec_events = 1024;
};

class Observability {
 public:
  Observability() : Observability(ObservabilityConfig{}) {}
  explicit Observability(ObservabilityConfig cfg);
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability();

  MetricsRegistry& registry() { return registry_; }
  sim::SchedulerProfiler& profiler() { return profiler_; }
  RunManifest& manifest() { return manifest_; }
  // Null when tracing is disabled (or finished).
  ChromeTraceWriter* trace() { return trace_.get(); }
  JourneyRecorder& journeys() { return journeys_; }
  // Null when the flight recorder is disabled.
  FlightRecorder* flightrec() { return flightrec_.get(); }

  // --- Attach points (call during scenario setup). ------------------------
  void attach_scheduler(sim::Scheduler& sched);
  // `name` keys the link's metrics ("link.<name>.*") and counter tracks.
  void attach_link(sim::Link& link, const std::string& name);
  // Wires a congestion controller's trace points into counters, the rate
  // histogram, and flight-recorder notes. Metric rows are prefixed with
  // the controller's canonical name — "rap.*" for the RAP backend (the
  // historic rows every golden pins), "tfrc.*"/"nada.*" for the others.
  void attach_controller(cc::CongestionController& src);
  void attach_adapter(core::QualityAdapter& adapter);
  void attach_client(VideoClient& client);
  // Convenience: controller + adapter + client + rebuffer log of one
  // session.
  void attach_session(Session& session);
  // Fault timeline: counts fault activations ("fault.events"), records
  // them in the flight recorder and draws trace instants on the link
  // track.
  void attach_fault_injector(sim::FaultInjector& inj);

  // Flushes every artifact (metrics snapshot as CSV and JSON, manifest,
  // finalized trace) and detaches from the scheduler. Idempotent. Must run
  // before attached objects die; the destructor calls it as a backstop.
  void finish();
  bool finished() const { return finished_; }

 private:
  void on_journey_span(const JourneySpan& span);
  void flightrec_note(TimePoint t, std::string_view kind,
                      std::string detail_json);

  ObservabilityConfig cfg_;
  MetricsRegistry registry_;
  sim::SchedulerProfiler profiler_;
  RunManifest manifest_;
  std::unique_ptr<ChromeTraceWriter> trace_;
  JourneyRecorder journeys_;
  std::unique_ptr<FlightRecorder> flightrec_;
  // Per video layer: its journey lane is labeled (on its first span).
  std::vector<bool> journey_track_named_;
  std::vector<ScopedSubscription> subs_;
  sim::Scheduler* sched_ = nullptr;
  // Sim end time recorded by finish() before the scheduler detaches, so
  // time-dependent callback gauges (rebuffer paused_s) stay correct in the
  // final artifact snapshot.
  TimePoint end_time_;
  bool finished_ = false;
};

}  // namespace qa::app
