#include "tcp/tcp_sink.h"

#include "util/logging.h"

namespace qa::tcp {

TcpSink::TcpSink(sim::Scheduler* sched, sim::Node* local)
    : sched_(sched), local_(local) {
  QA_CHECK(sched_ != nullptr && local_ != nullptr);
}

void TcpSink::on_packet(const sim::Packet& p) {
  if (p.type != sim::PacketType::kData) return;
  ++received_;

  if (p.seq == cum_ack_) {
    ++cum_ack_;
    // Absorb any contiguous run that was buffered out of order.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == cum_ack_) {
      ++cum_ack_;
      it = out_of_order_.erase(it);
    }
  } else if (p.seq > cum_ack_) {
    out_of_order_.insert(p.seq);
  }
  // else: duplicate of already-delivered data; still ACK it.

  sim::Packet ack;
  ack.src = local_->id();
  ack.dst = p.src;
  ack.flow_id = p.flow_id;
  ack.type = sim::PacketType::kAck;
  ack.size_bytes = sim::kAckBytes;
  ack.ack_seq = cum_ack_;     // cumulative: next expected segment
  ack.layer_seq = p.seq;      // seq of the triggering segment (Karn check)
  ack.ts_sent = sched_->now();
  ack.ts_echo = p.ts_sent;
  local_->send(ack);
}

}  // namespace qa::tcp
