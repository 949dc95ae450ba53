#include "cc/ack_sink.h"

#include <algorithm>

#include "util/logging.h"

namespace qa::cc {

AckSink::AckSink(sim::Scheduler* sched, sim::Node* local)
    : sched_(sched), local_(local) {
  QA_CHECK(sched_ != nullptr && local_ != nullptr);
}

void AckSink::on_packet(const sim::Packet& p) {
  if (p.type != sim::PacketType::kData) return;
  ++received_;
  bytes_ += p.size_bytes;
  highest_seq_ = std::max(highest_seq_, p.seq);
  if (journeys_ != nullptr && p.journey_id != kUntracedJourney) {
    journeys_->record_deliver(p.journey_id, sched_->now());
  }

  if (consumer_) consumer_(p);

  sim::Packet ack;
  ack.src = local_->id();
  ack.dst = p.src;
  ack.flow_id = p.flow_id;
  ack.type = sim::PacketType::kAck;
  ack.size_bytes = sim::kAckBytes;
  ack.seq = received_;      // ACK stream's own sequence
  ack.ack_seq = p.seq;      // the data packet being acknowledged
  ack.ts_sent = sched_->now();
  ack.ts_echo = p.ts_sent;  // echo for sender-side RTT sampling
  local_->send(ack);
}

}  // namespace qa::cc
