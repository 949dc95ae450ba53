// TCP NewReno sender, used as background load in the paper's experiments.
//
// The paper runs Sack-TCP cross traffic in ns-2; NewReno produces the same
// AIMD sawtooth and comparable average throughput over a drop-tail
// bottleneck, which is all the QA experiments depend on (documented
// substitution, DESIGN.md §5). Implemented: slow start, congestion
// avoidance, fast retransmit/fast recovery with NewReno partial-ACK
// handling, RTO with Karn's rule and exponential backoff. The flow is a
// bulk transfer (always has data).
//
// Sequence numbers count MSS-sized segments, not bytes: every data packet
// carries exactly one segment, and the sink's cumulative ACK carries the
// next expected segment number.
#pragma once

#include <set>

#include "sim/flow.h"
#include "sim/node.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace qa::tcp {

struct TcpParams {
  int32_t mss_bytes = 1000;
  TimeDelta initial_rtt = TimeDelta::millis(100);
  TimePoint start_time;
};

class TcpSource : public sim::Agent {
 public:
  TcpSource(sim::Scheduler* sched, sim::Node* local, sim::NodeId peer,
            sim::FlowId flow, TcpParams params);

  void start() override;
  void on_packet(const sim::Packet& p) override;  // ACKs

  double cwnd_segments() const { return cwnd_; }
  double ssthresh_segments() const { return ssthresh_; }
  int64_t segments_sent() const { return segments_sent_; }
  int64_t retransmits() const { return retransmits_; }
  int64_t timeouts() const { return timeouts_; }
  TimeDelta srtt() const { return srtt_; }

 private:
  void try_send();
  void send_segment(int64_t seq, bool is_retransmit);
  void on_new_ack(int64_t cum_ack);
  void on_dup_ack();
  void enter_fast_recovery();
  void on_timeout();
  void arm_rto();
  TimeDelta rto() const;
  void update_rtt(TimeDelta sample);
  double flight_segments() const;

  sim::Scheduler* sched_;
  sim::Node* local_;
  sim::NodeId peer_;
  sim::FlowId flow_;
  TcpParams params_;

  double cwnd_;
  double ssthresh_;
  int64_t next_seq_ = 0;        // next new segment to send
  int64_t snd_una_ = 0;         // oldest unacknowledged segment
  int64_t last_cum_ack_ = 0;
  int dup_acks_ = 0;

  bool in_recovery_ = false;
  int64_t recover_ = -1;        // NewReno: highest seq sent when loss detected

  TimeDelta srtt_;
  TimeDelta rttvar_;
  bool have_rtt_ = false;
  int rto_backoff_ = 0;
  std::set<int64_t> rtx_in_flight_;  // segments retransmitted (Karn's rule)

  sim::EventId rto_timer_ = sim::kInvalidEventId;
  sim::EventId send_kick_ = sim::kInvalidEventId;

  int64_t segments_sent_ = 0;
  int64_t retransmits_ = 0;
  int64_t timeouts_ = 0;
};

}  // namespace qa::tcp
