// RAP — Rate Adaptation Protocol sender (Rejaie, Handley, Estrin,
// INFOCOM '99), the TCP-friendly congestion controller the quality
// adaptation paper assumes.
//
// RAP is rate-based: fixed-size packets are paced by an inter-packet gap
// (IPG). The AIMD loop mirrors TCP's:
//   * additive increase: once per SRTT "step", rate += PacketSize/SRTT
//     (one extra packet per RTT each RTT), so the linear slope is
//     S = P/SRTT^2 bytes/s per second;
//   * multiplicative decrease: on congestion detection the rate halves.
// Losses are detected from the ACK stream (a packet is lost once three
// packets sent after it have been ACKed) or by a conservative timeout.
// All losses within one flight ("cluster") trigger a single backoff, like
// TCP's one-halving-per-window rule. This is the variant the paper
// evaluates, without RAP's fine-grain adaptation.
//
// Everything that is not the AIMD law itself — pacing, ACK processing,
// loss detection, timeouts, quiescence — lives in the shared engine,
// CongestionController; RAP contributes only the additive-increase step
// and the multiplicative decrease. TFRC and NADA plug the same engine,
// which is how the QA layer stays controller-agnostic (DESIGN.md §17).
#pragma once

#include "cc/congestion_controller.h"

namespace qa::cc {

class RapSource : public CongestionController {
 public:
  RapSource(sim::Scheduler* sched, sim::Node* local, sim::NodeId peer,
            sim::FlowId flow, CcParams params)
      : CongestionController(sched, local, peer, flow, params) {}

  // Slope of linear increase S in bytes/s per second: one packet per SRTT,
  // gained every SRTT.
  double slope_bps_per_sec() const override;
  const char* name() const override { return "rap"; }
  Backend backend() const override { return Backend::kRap; }

 protected:
  // Additive increase: one extra packet per SRTT, applied each SRTT —
  // gated on positive feedback and on no backoff this step.
  void on_step() override;
  // Multiplicative decrease: the rate halves (floored at min_rate).
  void on_congestion() override;
};

}  // namespace qa::cc
