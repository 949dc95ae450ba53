// CongestionController: the transport-facing interface the quality
// adaptation layer sits on.
//
// The paper's central claim is that quality adaptation works atop *any*
// TCP-friendly congestion controller — RAP's AIMD sawtooth is merely the
// instance it evaluates. This module makes the claim testable: the
// VideoServer / QualityAdapter / Session stack consumes only this
// interface, and tests/cc_conformance_test.cc runs the same QA invariants
// against every registered backend (RAP sawtooth, equation-based TFRC,
// delay-based NADA).
//
// What a backend must provide (the conformance contract):
//   * rate/IPG: a paced, rate-based sender — `rate()` is the instantaneous
//     transmission rate R the QA formulas consume, and packets leave one
//     inter-packet gap (packet_size / R) apart, never in bursts;
//   * ack/loss/timeout hooks: the payload tagger fills each outgoing
//     packet's layer fields, and the CcListener hears every ACK, every
//     detected loss (with the original layer tagging), and every
//     congestion event (`on_backoff`, with the post-event rate);
//   * quiescence: under sustained ACK starvation the controller must go
//     quiescent (probe, don't stream) and signal the transition both ways
//     so the adapter can enter/exit base-layer-only degraded mode;
//   * seeded determinism: a controller's behavior is a pure function of
//     its parameters and the feedback it observes. Controllers hold NO
//     internal randomness; a stochastic extension must take a uint64_t
//     seed through CcParams (never an Rng, never wall-clock entropy) so
//     same-seed runs stay digest-identical — see DESIGN.md §13/§17.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/flow.h"
#include "sim/node.h"
#include "util/event.h"
#include "util/journey.h"
#include "util/units.h"

namespace qa::cc {

// The registered backends (tools expose this as --backend; qa_sweep as a
// grid axis). Order is the CLI/CSV encoding — append only.
enum class Backend {
  kRap = 0,   // AIMD sawtooth (Rejaie/Handley/Estrin RAP)
  kTfrc = 1,  // equation-based smooth rate (TFRC-style, RFC 5348 shape)
  kNada = 2,  // delay-based (NADA, RFC 8698 shape)
};

// Canonical lowercase names ("rap", "tfrc", "nada").
const char* to_string(Backend b);
// All backends, in enum order (for test parameterization and sweep axes).
const std::vector<Backend>& all_backends();

// The control-path listener (one slot; the QA layer). Multi-subscriber
// observation goes through the Event<> trace points below instead.
class CcListener {
 public:
  virtual ~CcListener() = default;
  // A data packet was acknowledged (the original packet is passed back).
  virtual void on_ack(const sim::Packet& /*data_pkt*/) {}
  // A data packet was declared lost (original layer tagging preserved).
  virtual void on_loss(const sim::Packet& /*data_pkt*/) {}
  // The controller reduced its rate in response to congestion; it passes
  // the post-event rate. (The name keeps RAP's vocabulary: for AIMD this
  // is the multiplicative decrease; for TFRC it is the equation response
  // to a new loss event; for NADA a loss-driven decrease.)
  virtual void on_backoff(Rate /*new_rate*/) {}
  // Rate rose through the controller's probing/increase path.
  virtual void on_rate_increase(Rate /*new_rate*/) {}
  // ACK starvation drove the source quiescent (active=true) or feedback
  // returned and paced sending resumed (active=false).
  virtual void on_quiescence(bool /*active*/) {}
};

// Parameters shared by every backend.
struct CcParams {
  int32_t packet_size = 1000;      // bytes, data packets
  int32_t ack_size = 40;           // bytes
  Rate initial_rate = Rate::kilobytes_per_sec(5);
  Rate min_rate = Rate::bytes_per_sec(500);   // 1 pkt / 2 s floor
  // Upper clamp for the self-limited backends (TFRC's equation before the
  // first loss event, NADA's ramp-up). RAP ignores it: AIMD is limited by
  // the loss process itself.
  Rate max_rate = Rate::megabits_per_sec(96);
  TimeDelta initial_rtt = TimeDelta::millis(100);
  bool fine_grain = false;         // RAP: short/long RTT ratio IPG scaling
  TimePoint start_time;            // when to begin transmitting

  // Determinism contract: backends are deterministic today and this seed
  // is how any future stochastic behavior must be parameterized (plumbed
  // from ExperimentParams, never a literal — see the analyzer's
  // seed-plumbing rule).
  uint64_t seed = 1;

  // Quiescence (ACK starvation) handling, shared by all backends. The
  // source goes quiescent once at least three sends have gone unanswered
  // AND no ACK has arrived for starvation_srtt_factor * SRTT — but never
  // sooner than a few packet gaps plus an RTO, so a healthy flow pacing at
  // the rate floor (IPG >> SRTT, every packet answered) is not mistaken
  // for a dead path. While quiescent it sends probe packets at
  // exponentially backed-off intervals (starting near the RTO, doubling up
  // to probe_interval_cap); the first ACK exits quiescence with a slow
  // restart from min_rate — paced, never a burst.
  double starvation_srtt_factor = 10.0;
  TimeDelta probe_interval_cap = TimeDelta::seconds(2);
};

// The abstract controller. Concrete backends all derive from cc::CcSource
// (the shared pacing/feedback engine); this class is what the QA layer and
// observability consume.
class CongestionController : public sim::Agent {
 public:
  ~CongestionController() override = default;

  // sim::Agent: start() begins transmitting, on_packet() receives ACKs.

  // Ends the session: cancels timers and ignores late ACKs. Idempotent; a
  // stopped controller never sends again.
  virtual void stop() = 0;
  virtual bool stopped() const = 0;

  // --- QA wiring (concrete: pure plumbing, shared by every backend). ------
  // Invoked for every outgoing data packet to fill the layer fields.
  void set_payload_tagger(std::function<void(sim::Packet&)> tagger) {
    tagger_ = std::move(tagger);
  }
  void set_listener(CcListener* listener) { listener_ = listener; }
  // Journey tracing: every outgoing data packet opens a journey (stamped
  // after the payload tagger runs) and ACK/loss bookkeeping closes it.
  // Nullptr detaches; detached costs one branch per site.
  void set_journey_recorder(JourneyRecorder* recorder) {
    journeys_ = recorder;
  }

  // --- Controller state, as the QA formulas consume it. --------------------
  virtual Rate rate() const = 0;
  virtual TimeDelta srtt() const = 0;
  // The effective linear-increase slope S in bytes/s per second that the
  // paper's buffer-requirement formulas assume. For a backend without a
  // literal sawtooth this is a conservative bound on how fast its rate can
  // move (documented per backend; see DESIGN.md §17).
  virtual double slope_bps_per_sec() const = 0;
  virtual int32_t packet_size() const = 0;
  // Canonical backend name ("rap", "tfrc", "nada").
  virtual const char* name() const = 0;
  virtual Backend backend() const = 0;

  // --- Run statistics. ------------------------------------------------------
  virtual int64_t packets_sent() const = 0;
  virtual int64_t losses_detected() const = 0;
  virtual int64_t backoffs() const = 0;

  // --- Quiescence introspection. -------------------------------------------
  virtual bool quiescent() const = 0;
  virtual int64_t quiescence_entries() const = 0;

  // --- Trace points (util/event.h). ----------------------------------------
  // The single CcListener slot stays the QA control path; these events are
  // the multi-subscriber observation path (exporters, metrics).
  // Every effective rate change, whatever caused it: time and new rate.
  Event<TimePoint, Rate>& on_rate_change() { return on_rate_change_; }
  // Congestion response: time and post-event rate.
  Event<TimePoint, Rate>& on_backoff() { return on_backoff_; }
  // A packet condemned by the conservative timeout (as opposed to the
  // ACK-gap rule); the original packet keeps its layer tagging.
  Event<TimePoint, const sim::Packet&>& on_timeout_loss() {
    return on_timeout_loss_;
  }
  // Quiescence transitions: true on entry, false on exit.
  Event<TimePoint, bool>& on_quiescence() { return on_quiescence_; }

 protected:
  std::function<void(sim::Packet&)> tagger_;
  CcListener* listener_ = nullptr;
  JourneyRecorder* journeys_ = nullptr;

  Event<TimePoint, Rate> on_rate_change_;
  Event<TimePoint, Rate> on_backoff_;
  Event<TimePoint, const sim::Packet&> on_timeout_loss_;
  Event<TimePoint, bool> on_quiescence_;
};

}  // namespace qa::cc
