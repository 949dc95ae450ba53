// TCP receiver: cumulative ACKs with an out-of-order reassembly set.
#pragma once

#include <set>

#include "sim/flow.h"
#include "sim/node.h"
#include "sim/scheduler.h"

namespace qa::tcp {

class TcpSink : public sim::Agent {
 public:
  TcpSink(sim::Scheduler* sched, sim::Node* local);

  void on_packet(const sim::Packet& p) override;

  // Next expected segment (== count of in-order segments delivered).
  int64_t cumulative_ack() const { return cum_ack_; }
  int64_t segments_received() const { return received_; }

 private:
  sim::Scheduler* sched_;
  sim::Node* local_;
  int64_t cum_ack_ = 0;
  int64_t received_ = 0;
  std::set<int64_t> out_of_order_;
};

}  // namespace qa::tcp
