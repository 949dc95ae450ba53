// CongestionController: the rate-based sender the quality adaptation layer
// sits on, and the engine every congestion-control backend builds on.
//
// The paper's central claim is that quality adaptation works atop *any*
// TCP-friendly congestion controller — RAP's AIMD sawtooth is merely the
// instance it evaluates. This class makes the claim testable: the
// VideoServer / QualityAdapter / Session stack consumes only this class,
// and tests/cc_conformance_test.cc runs the same QA invariants against
// every registered backend (RAP sawtooth, equation-based TFRC, delay-based
// NADA).
//
// The engine owns everything that is NOT the rate law: IPG pacing timers,
// the sent-packet history, per-packet-ACK processing with RTT estimation
// (RFC 6298 EWMA), loss detection (ACK-gap rule: a packet is lost once
// three packets sent after it are ACKed; plus a conservative timeout),
// cluster-loss suppression (all losses within one flight are one
// congestion event, like TCP's one-halving-per-window rule), and the
// ACK-starvation quiescence machinery (probe, slow restart — see
// CcParams). Backends supply only the control law through three hooks:
//
//   * on_step()        — called once per step_interval() (default: one
//                        SRTT); the additive-increase / equation-update /
//                        gradual-update site;
//   * on_congestion()  — called once per detected congestion event
//                        (cluster of losses); must move rate_ via
//                        set_rate(); the engine then audits the result and
//                        fires on_backoff;
//   * on_feedback()    — called for every processed ACK with its RTT
//                        sample, after the RTT filters update (delay-based
//                        laws live here; default no-op).
//
// What a backend must provide (the conformance contract):
//   * rate/IPG: a paced, rate-based sender — `rate()` is the instantaneous
//     transmission rate R the QA formulas consume, and packets leave one
//     inter-packet gap (packet_size / R) apart, never in bursts;
//   * a conservative slope S (`slope_bps_per_sec`) for the buffer math;
//   * quiescence: under sustained ACK starvation the controller goes
//     quiescent (probe, don't stream) and signals the transition both ways
//     so the adapter can enter/exit base-layer-only degraded mode;
//   * seeded determinism: a controller's behavior is a pure function of
//     its parameters and the feedback it observes. Controllers hold NO
//     internal randomness; a stochastic extension must take a uint64_t
//     seed through CcParams (never an Rng, never wall-clock entropy) so
//     same-seed runs stay digest-identical — see DESIGN.md §13/§17.
//
// Everyone hears the controller through its Event<> trace points: the
// payload tagger fills each outgoing packet's layer fields, and the QA
// layer (VideoServer) and observability subscribe to losses (with the
// original layer tagging), backoffs (with the post-event rate) and
// quiescence transitions. Subscribers run in subscription order, so the
// server, which subscribes when it is built, acts before any observer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/flow.h"
#include "sim/node.h"
#include "sim/scheduler.h"
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

// Parameters shared by every backend.
struct CcParams {
  int32_t packet_size = 1000;      // bytes, data packets
  Rate initial_rate = Rate::kilobytes_per_sec(5);
  Rate min_rate = Rate::bytes_per_sec(500);   // 1 pkt / 2 s floor
  TimeDelta initial_rtt = TimeDelta::millis(100);
  TimePoint start_time;            // when to begin transmitting

  // Determinism contract: backends are deterministic today and this seed
  // is how any future stochastic behavior must be parameterized (plumbed
  // from ExperimentParams, never a literal — see the analyzer's
  // seed-plumbing rule).
  uint64_t seed = 1;
};

class CongestionController : public sim::Agent {
 public:
  CongestionController(sim::Scheduler* sched, sim::Node* local,
                       sim::NodeId peer, sim::FlowId flow, CcParams params);

  // sim::Agent: start() begins transmitting, on_packet() receives ACKs.
  void start() override;
  void on_packet(const sim::Packet& p) override;

  // Ends the session: cancels timers and ignores late ACKs. Idempotent; a
  // stopped controller never sends again.
  void stop();
  bool stopped() const { return stopped_; }

  // --- QA wiring. -----------------------------------------------------------
  // Invoked for every outgoing data packet to fill the layer fields.
  void set_payload_tagger(std::function<void(sim::Packet&)> tagger) {
    tagger_ = std::move(tagger);
  }
  // Journey tracing: every outgoing data packet opens a journey (stamped
  // after the payload tagger runs) and ACK/loss bookkeeping closes it.
  // Nullptr detaches; detached costs one branch per site.
  void set_journey_recorder(JourneyRecorder* recorder) {
    journeys_ = recorder;
  }

  // --- Controller state, as the QA formulas consume it. --------------------
  Rate rate() const { return rate_; }
  TimeDelta srtt() const { return srtt_; }
  // The effective linear-increase slope S in bytes/s per second that the
  // paper's buffer-requirement formulas assume. For a backend without a
  // literal sawtooth this is a conservative bound on how fast its rate can
  // move (documented per backend; see DESIGN.md §17).
  virtual double slope_bps_per_sec() const = 0;
  int32_t packet_size() const { return params_.packet_size; }
  // Canonical backend name ("rap", "tfrc", "nada").
  virtual const char* name() const = 0;
  virtual Backend backend() const = 0;

  // --- Run statistics. ------------------------------------------------------
  int64_t packets_sent() const { return packets_sent_; }
  int64_t losses_detected() const { return losses_; }
  int64_t backoffs() const { return backoffs_; }

  // --- Quiescence introspection. -------------------------------------------
  bool quiescent() const { return quiescent_; }
  int64_t quiescence_entries() const { return quiescence_entries_; }
  TimePoint last_ack_at() const { return last_ack_at_; }
  // The silence threshold that triggers quiescence at the current SRTT/IPG.
  TimeDelta starvation_threshold() const;

  // --- Events (util/event.h). -----------------------------------------------
  // Every effective rate change, whatever caused it: time and new rate.
  Event<TimePoint, Rate>& on_rate_change() { return on_rate_change_; }
  // Congestion response: time and post-event rate. (The name keeps RAP's
  // vocabulary: for AIMD this is the multiplicative decrease; for TFRC the
  // equation response to a new loss event; for NADA a loss-driven
  // decrease.)
  Event<TimePoint, Rate>& on_backoff() { return on_backoff_; }
  // A data packet was declared lost; the original packet keeps its layer
  // tagging. `timeout` is true when the conservative timeout condemned it,
  // false for the ACK-gap rule.
  Event<TimePoint, const sim::Packet&, bool>& on_loss() { return on_loss_; }
  // Quiescence transitions: true on entry, false on exit.
  Event<TimePoint, bool>& on_quiescence() { return on_quiescence_; }

 protected:
  // --- Backend law hooks (see file comment). -------------------------------
  virtual void on_step() = 0;
  virtual void on_congestion() = 0;
  virtual void on_feedback(const sim::Packet& /*ack*/,
                           TimeDelta /*rtt_sample*/) {}
  // Spacing of the step timer. Default: one SRTT (AIMD-style laws); a
  // fixed-interval law (NADA's delta) overrides.
  virtual TimeDelta step_interval() const { return srtt_; }

  // --- Shared helpers for backends. ----------------------------------------
  // Upper clamp for the self-limited backends (TFRC's equation before the
  // first loss event, NADA's ramp-up). RAP ignores it: AIMD is limited by
  // the loss process itself.
  static constexpr Rate kMaxRate = Rate::megabits_per_sec(96);
  // Clamps to the min-rate floor and emits on_rate_change on effective
  // change. Backends apply their own kMaxRate clamp before calling.
  void set_rate(Rate r);
  TimeDelta current_ipg() const;
  TimeDelta rto() const;

  sim::Scheduler* sched_;
  sim::Node* local_;
  sim::NodeId peer_;
  sim::FlowId flow_;
  CcParams params_;

  Rate rate_;
  TimeDelta srtt_;
  TimeDelta rttvar_;
  bool have_rtt_sample_ = false;

  // Additive increase requires positive feedback: a step with no ACKs
  // (e.g. a path blackout) must not raise the rate. Reset by the engine
  // after every on_step().
  bool backoff_since_step_ = false;
  bool ack_since_step_ = false;

 private:
  struct HistoryEntry {
    sim::Packet pkt;      // as sent (keeps layer tagging for loss reports)
    bool acked = false;
    bool lost = false;
  };

  void send_next();
  void schedule_step();
  void step();  // per-step_interval law update
  void process_ack(const sim::Packet& ack);
  void detect_losses_from_ack(int64_t acked_seq);
  void check_timeouts();
  // Marks `e` lost and reports it; true when it opens a new congestion
  // event (it was sent after the last event's flight).
  bool declare_lost(HistoryEntry& e, bool timeout);
  void congestion_event();
  void maybe_enter_quiescence();
  void exit_quiescence();
  TimeDelta next_probe_interval();
  void update_rtt(TimeDelta sample);
  void prune_history();
  HistoryEntry* find_entry(int64_t seq);

  std::function<void(sim::Packet&)> tagger_;
  JourneyRecorder* journeys_ = nullptr;

  Event<TimePoint, Rate> on_rate_change_;
  Event<TimePoint, Rate> on_backoff_;
  Event<TimePoint, const sim::Packet&, bool> on_loss_;
  Event<TimePoint, bool> on_quiescence_;

  int64_t next_seq_ = 0;
  // Cluster-loss suppression: losses with seq <= recovery_until_seq_ belong
  // to an already-handled congestion event.
  int64_t recovery_until_seq_ = -1;

  std::deque<HistoryEntry> history_;  // ascending seq

  sim::EventId send_timer_ = sim::kInvalidEventId;
  sim::EventId step_timer_ = sim::kInvalidEventId;

  bool stopped_ = false;

  // ACK-starvation state (see CcParams). last_ack_at_ starts at the
  // transmission start time so a connection that never hears back also goes
  // quiescent.
  bool quiescent_ = false;
  TimePoint last_ack_at_;
  // Sends with no ACK heard since; starvation requires several unanswered
  // sends, not mere silence (a floor-paced flow is quiet between ACKs).
  int64_t sent_since_ack_ = 0;
  TimeDelta probe_interval_ = TimeDelta::zero();
  int64_t quiescence_entries_ = 0;

  int64_t packets_sent_ = 0;
  int64_t losses_ = 0;
  int64_t backoffs_ = 0;
};

// Builds the requested backend on the given node/flow. The returned
// controller is not yet started; hand it to Network::adopt_agent.
std::unique_ptr<CongestionController> make_controller(
    Backend backend, sim::Scheduler* sched, sim::Node* local,
    sim::NodeId peer, sim::FlowId flow, const CcParams& params);

}  // namespace qa::cc
