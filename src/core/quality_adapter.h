// QualityAdapter: the paper's quality adaptation mechanism, assembled.
//
// The adapter runs at the video server and is transport-agnostic: the
// congestion controller (RAP here, anything AIMD in general) feeds it the
// instantaneous transmission rate R and linear-increase slope S, tells it
// about backoffs and packet losses, and asks it which layer each outgoing
// packet should carry. Internally it:
//
//   * mirrors the receiver's per-layer buffers (ReceiverModel),
//   * in filling phases (R >= n_a*C) assigns packets with the per-packet
//     state-traversal algorithm of §4.1 and adds a layer when the smoothed
//     conditions of §2.1/§3.1 hold,
//   * in draining phases (R < n_a*C) follows the §4.2 periodic plan that
//     walks the optimal-state sequence backwards, and drops layers on
//     backoffs / critical situations per §2.2,
//   * records the §5 evaluation metrics.
//
// Every rate/size quantity is bytes or bytes/second; time comes from the
// caller so the adapter works both inside the packet simulator and in the
// trace-driven harness.
#pragma once

#include <vector>

#include "core/add_drop.h"
#include "core/buffer_math.h"
#include "core/draining_policy.h"
#include "core/filling_policy.h"
#include "core/metrics.h"
#include "core/receiver_model.h"
#include "core/state_sequence.h"
#include "util/event.h"
#include "util/time.h"

namespace qa::core {

struct AdapterConfig {
  double consumption_rate = 10'000;  // C: bytes/s per layer
  int max_layers = 10;               // layers available in the stream
  int kmax = 2;                      // smoothing factor (§3)
  TimeDelta drain_period = TimeDelta::millis(100);  // §4.2 planning period
  TimeDelta playout_delay = TimeDelta::seconds(1);  // client startup delay
  bool monotone = true;              // fig-10 constraint (ablation flag)
  AllocationPolicy allocation = AllocationPolicy::kOptimal;
  // Extension: keep deepening buffers for up to this many extra backoffs
  // past the Kmax requirement when no layer can be added (useful on capped
  // links — the 2.9-layer modem case; the paper instead bounds receiver
  // buffering at the Kmax requirement — footnote 2 — and the transport
  // pads or idles the excess). 0 disables.
  int surplus_ladder_depth = 0;
  // Minimum spacing between consecutive layer additions. A newcomer's
  // buffer state (and the rate estimate that justified it) needs time to
  // settle before the next add decision is meaningful; without spacing a
  // transport-level rate overshoot at startup adds the whole stack at once
  // only to shed it at the first loss.
  TimeDelta min_add_spacing = TimeDelta::seconds(1);
};

class QualityAdapter {
 public:
  explicit QualityAdapter(AdapterConfig cfg);

  // Starts the session at `now`: activates the base layer and schedules
  // playout to begin after the configured startup delay.
  void begin(TimePoint now);

  // The transport has a transmission slot for one packet of `packet_bytes`.
  // Returns the layer the packet should carry, or kPaddingSlot when every
  // entitlement and buffer target is met and receiver buffering should not
  // grow further (the transport sends padding or idles the slot).
  // `rate`/`slope` are the congestion controller's current estimates in
  // bytes/s and bytes/s per second.
  static constexpr int kPaddingSlot = -1;
  int on_send_opportunity(TimePoint now, double rate, double slope,
                          double packet_bytes);

  // Proxy/cache warm start (the paper's §7 outlook): data for the lowest
  // layers already sits downstream (e.g. at a proxy cache), so those
  // layers can activate immediately with their cached bytes as initial
  // buffering while the congestion-controlled connection catches up.
  // cached_bytes[0] tops up the base layer; each further entry activates
  // one more layer. Call right after begin().
  void warm_start(TimePoint now, const std::vector<double>& cached_bytes);

  // The transport detected the loss of a previously sent packet.
  void on_packet_lost(TimePoint now, int layer, double bytes);

  // The transport retransmitted a previously lost packet (selective
  // retransmission, §1.3): the bytes the loss debit removed are restored.
  void on_retransmit(TimePoint now, int layer, double bytes);

  // The congestion controller halved its rate; `rate_post` is the new rate.
  void on_backoff(TimePoint now, double rate_post, double slope);

  // Sustained feedback starvation (the transport went quiescent): shed
  // everything above the base layer at once and pin every subsequent slot
  // to the base layer — thrashing add/drop against a dead feedback path
  // helps nobody, and whatever trickle still gets through must protect
  // playback itself. exit_degraded() re-enables normal adaptation; the add
  // gate is held down for min_add_spacing from the exit so layers return
  // one at a time as the rate estimate recovers.
  void enter_degraded(TimePoint now);
  void exit_degraded(TimePoint now);
  bool degraded() const { return degraded_; }
  int64_t degraded_entries() const { return degraded_entries_; }

  // Farm-wide load shedding, first rung: hold the current layer count but
  // add no more (drops still fire normally). Milder than enter_degraded —
  // nobody loses quality, the farm just stops competing for more. Unfreezing
  // holds the add gate down for min_add_spacing so the pent-up demand
  // returns one layer at a time.
  void set_adds_frozen(bool frozen, TimePoint now);
  bool adds_frozen() const { return adds_frozen_; }

  // One per-packet allocation decision, with the buffer-state context the
  // decision was made against.
  struct AllocationDecision {
    TimePoint time;
    int layer = 0;        // chosen layer, or kPaddingSlot
    bool draining = false;  // a §4.2 drain plan was in force
    double total_buf = 0;   // mirrored total buffering at decision time
  };

  // --- Trace points (util/event.h). ---------------------------------------
  // Layer drops/adds, with the same payloads AdapterMetrics records.
  Event<const DropEvent&>& on_drop() { return on_drop_; }
  Event<const AddEvent&>& on_add() { return on_add_; }
  // Every on_send_opportunity outcome (hot path: argument construction is
  // guarded, so an unsubscribed event costs one branch).
  Event<const AllocationDecision&>& on_allocation() { return on_allocation_; }

  int active_layers() const { return receiver_.active_layers(); }
  const ReceiverModel& receiver() const { return receiver_; }
  const AdapterMetrics& metrics() const { return metrics_; }
  const AdapterConfig& config() const { return cfg_; }
  bool draining() const { return plan_valid_; }

  // The §2.3–§2.4 efficiency predicate: a maximally efficient inter-layer
  // distribution keeps buffering skewed toward lower layers (a byte on
  // layer i protects every state a byte on layer i+1 protects, and more),
  // so no layer may hold materially more than the layer below it.
  // `slack_bytes` absorbs packet granularity and bounded transients
  // (in-flight credit, per-RTT loss debits). Audited after every packet
  // assignment under the optimal allocation; exposed for tests.
  static bool efficiently_distributed(const std::vector<double>& layer_buf,
                                      double slack_bytes);

 private:
  AimdModel model_for(double slope) const;
  // Drops the top layer, recording the drop event. `rate` is the current
  // transmission rate (for the required-buffering classification).
  void drop_top(TimePoint now, double rate, const AimdModel& m,
                bool poor_distribution);
  // Applies the §2.2 rule and any underflow-forced drops; returns true when
  // layers were dropped.
  bool apply_drops(TimePoint now, double rate, const AimdModel& m);
  void rebuild_plan(TimePoint now, double rate, const AimdModel& m);
  int pick_drain_layer(TimePoint now, double rate, const AimdModel& m,
                       double packet_bytes);
  // Runtime audit of `efficiently_distributed` over the mirrored buffers.
  void audit_distribution(double packet_bytes) const;
  // Emits on_allocation() when subscribed; `layer` may be kPaddingSlot.
  void trace_allocation(TimePoint now, int layer);

  AdapterConfig cfg_;
  ReceiverModel receiver_;
  AdapterMetrics metrics_;
  Event<const DropEvent&> on_drop_;
  Event<const AddEvent&> on_add_;
  Event<const AllocationDecision&> on_allocation_;
  bool begun_ = false;
  bool degraded_ = false;
  bool adds_frozen_ = false;
  int64_t degraded_entries_ = 0;

  // Rate at the top of the last filling phase; the state sequence walked
  // backwards while draining was built against it (§4.2).
  double rate_ref_ = 0;

  // Conservative smoothed rate for target evaluation (see kRateEwmaTau).
  void update_rate_avg(TimePoint now, double rate, double slope);
  double target_rate(double rate) const;
  double smoothed_slope(double slope) const;
  double rate_avg_ = 0;
  double slope_avg_ = 0;
  TimePoint rate_avg_at_;
  bool rate_avg_init_ = false;

  // The periodic bandwidth plan (§4.2), used in BOTH phases: per planning
  // period each layer is entitled to its consumption share C*dt minus
  // whatever the plan drains from its buffer (zero when the rate covers
  // consumption). Packets first pay down the largest remaining entitlement;
  // surplus packets beyond the plan chase the buffer targets (§4.1).
  bool plan_valid_ = false;
  TimePoint plan_expiry_;
  std::vector<double> send_credit_;
  // Storage of the last plan and its state sequence, reused by every
  // rebuild so that re-planning allocates nothing.
  DrainPlan plan_;
  StateSequence plan_seq_;
  double last_packet_bytes_ = 1000;
  TimePoint last_add_;
};

}  // namespace qa::core
