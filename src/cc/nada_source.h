// NADA-style delay-based congestion controller (RFC 8698 shape).
//
// NADA steers on an aggregate congestion signal x_curr measured in time
// units: the EWMA-filtered queuing delay (RTT sample minus the baseline
// minimum RTT) plus a decaying penalty for recent loss events. Once per
// fixed update interval delta (not per RTT — the third step-clock regime
// the conformance kit exercises) the reference rate moves:
//
//   * accelerated ramp-up while the path shows no congestion at all
//     (x_curr below a fraction of x_ref and no recent loss): multiplicative
//     growth bounded by the RTT-scaled gamma of RFC 8698 §4.3;
//   * gradual update otherwise: r += -kappa * (delta/tau) * (x_offset/tau) * r
//     with x_offset = x_curr - x_ref, which converges toward the rate where
//     the queuing delay this flow induces equals x_ref;
//   * multiplicative decrease on each loss event (cluster), since a
//     delay-only law starves against loss-based traffic at a drop-tail
//     bottleneck.
//
// The result is a rate trajectory with plateaus and step responses to
// delay changes — neither RAP's sawtooth nor TFRC's smooth curve — which
// is exactly the input shape the §2.3–§2.4 quality-adaptation invariants
// must survive (tests/cc_conformance_test.cc; DESIGN.md §17).
#pragma once

#include "cc/congestion_controller.h"

namespace qa::cc {

class NadaSource : public CongestionController {
 public:
  NadaSource(sim::Scheduler* sched, sim::Node* local, sim::NodeId peer,
             sim::FlowId flow, CcParams params)
      : CongestionController(sched, local, peer, flow, params) {}

  // Bounded by the ramp-up gamma: at most gamma_max per delta, which stays
  // under the one-packet-per-RTT-per-RTT envelope the QA buffer math uses.
  double slope_bps_per_sec() const override;
  const char* name() const override { return "nada"; }
  Backend backend() const override { return Backend::kNada; }

  // Observables for tests.
  TimeDelta baseline_rtt() const { return base_rtt_; }
  TimeDelta congestion_signal() const;

 protected:
  void on_step() override;
  void on_congestion() override;
  void on_feedback(const sim::Packet& ack, TimeDelta rtt_sample) override;
  // Fixed update interval delta, independent of the RTT.
  TimeDelta step_interval() const override;

 private:
  // Baseline (minimum observed) RTT; queuing delay is measured against it.
  TimeDelta base_rtt_ = TimeDelta::zero();
  bool have_base_ = false;
  // EWMA-filtered queuing delay estimate.
  TimeDelta delay_filt_ = TimeDelta::zero();
  bool have_delay_ = false;
  // Decaying loss penalty added to the congestion signal.
  TimeDelta loss_penalty_ = TimeDelta::zero();
};

}  // namespace qa::cc
