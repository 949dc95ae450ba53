// TFRC-style equation-based congestion controller (RFC 5348 shape).
//
// Where RAP probes with a sawtooth, TFRC holds its rate at the throughput
// a TCP flow would average under the same loss process, using the TCP
// response function
//
//     X = s / ( R*sqrt(2p/3) + t_RTO * 3*sqrt(3p/8) * p * (1 + 32 p^2) )
//
// with s the packet size, R the smoothed RTT, t_RTO ≈ 4R, and p the loss
// event rate. The result is a *smooth* rate trajectory: no halvings, no
// linear ramps — exactly the regime the paper's quality-adaptation
// formulas were never evaluated against, and the reason this backend
// exists (ROADMAP item 3; tests/cc_conformance_test.cc).
//
// Differences from a full RFC 5348 sender, chosen to fit the engine's
// sender-driven per-packet-ACK world (and kept deterministic):
//   * the loss event rate is computed at the sender from the engine's own
//     loss detections (the engine's cluster suppression *is* the "one
//     loss event per RTT" notion), via the standard 8-interval weighted
//     average (WALI) with history discounting by the open interval;
//   * before the first loss event the rate doubles once per RTT, capped
//     by twice the observed delivery rate (slow start);
//   * the allowed sending rate is capped at twice the delivery-rate
//     estimate and at CongestionController::kMaxRate, and floored at
//     min_rate.
#pragma once

#include <deque>

#include "cc/congestion_controller.h"

namespace qa::cc {

class TfrcSource : public CongestionController {
 public:
  TfrcSource(sim::Scheduler* sched, sim::Node* local, sim::NodeId peer,
             sim::FlowId flow, CcParams params)
      : CongestionController(sched, local, peer, flow, params) {}

  // The QA formulas assume an AIMD sawtooth of slope S; TFRC's equation
  // response to a loss-rate change is bounded by the same one-packet-per-
  // RTT-per-RTT envelope, so P/SRTT^2 stays the conservative bound the
  // buffer-requirement math needs (DESIGN.md §17).
  double slope_bps_per_sec() const override;
  const char* name() const override { return "tfrc"; }
  Backend backend() const override { return Backend::kTfrc; }

  // Current loss event rate estimate p (0 before the first loss event).
  double loss_event_rate() const;

 protected:
  void on_step() override;
  void on_congestion() override;
  void on_feedback(const sim::Packet& ack, TimeDelta rtt_sample) override;

 private:
  // Equation throughput at loss event rate `p` (bytes/s).
  double equation_rate(double p) const;
  // Weighted average loss interval (WALI) over the closed intervals, with
  // the open interval included when that *lowers* the loss rate.
  double average_loss_interval() const;
  // Delivery-rate estimate: EWMA of bytes ACKed per SRTT.
  void fold_delivery_window();

  // Closed loss event intervals (packet counts), most recent first.
  std::deque<double> intervals_;
  // Packets sent when the last loss event closed (open interval start).
  int64_t interval_start_packets_ = 0;
  bool have_loss_ = false;

  // Delivery-rate estimate (bytes/s), EWMA over per-step ACKed bytes.
  double acked_bytes_step_ = 0;
  double delivery_rate_bps_ = 0;
  bool have_delivery_sample_ = false;
};

}  // namespace qa::cc
