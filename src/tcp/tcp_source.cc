#include "tcp/tcp_source.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace qa::tcp {
namespace {
constexpr double kInitialCwnd = 2.0;       // segments
constexpr double kInitialSsthresh = 64.0;  // segments
constexpr TimeDelta kMinRto = TimeDelta::millis(200);
}  // namespace

TcpSource::TcpSource(sim::Scheduler* sched, sim::Node* local, sim::NodeId peer,
                     sim::FlowId flow, TcpParams params)
    : sched_(sched),
      local_(local),
      peer_(peer),
      flow_(flow),
      params_(params),
      cwnd_(kInitialCwnd),
      ssthresh_(kInitialSsthresh),
      srtt_(params.initial_rtt),
      rttvar_(params.initial_rtt / 2) {}

void TcpSource::start() {
  const TimeDelta defer = params_.start_time > sched_->now()
                              ? params_.start_time - sched_->now()
                              : TimeDelta::zero();
  send_kick_ = sched_->schedule_after(
      defer,
      [this] {
        try_send();
        arm_rto();
      },
      sim::EventCategory::kTransport);
}

double TcpSource::flight_segments() const {
  return static_cast<double>(next_seq_ - snd_una_);
}

void TcpSource::try_send() {
  const int64_t window_end =
      snd_una_ + static_cast<int64_t>(std::floor(cwnd_));
  while (next_seq_ < window_end) {
    send_segment(next_seq_, /*is_retransmit=*/false);
    ++next_seq_;
  }
}

void TcpSource::send_segment(int64_t seq, bool is_retransmit) {
  sim::Packet p;
  p.src = local_->id();
  p.dst = peer_;
  p.flow_id = flow_;
  p.type = sim::PacketType::kData;
  p.size_bytes = params_.mss_bytes;
  p.seq = seq;
  p.ts_sent = sched_->now();
  local_->send(p);
  ++segments_sent_;
  if (is_retransmit) {
    ++retransmits_;
    rtx_in_flight_.insert(seq);
  }
}

void TcpSource::on_packet(const sim::Packet& p) {
  if (p.type != sim::PacketType::kAck) return;
  const int64_t cum_ack = p.ack_seq;  // next expected segment

  // Karn's rule: only sample RTT when the triggering data packet (whose
  // send timestamp the sink echoed, seq carried in layer_seq) was not a
  // retransmission.
  if (p.layer_seq >= 0 && rtx_in_flight_.count(p.layer_seq) == 0) {
    update_rtt(sched_->now() - p.ts_echo);
  }

  if (cum_ack > last_cum_ack_) {
    last_cum_ack_ = cum_ack;
    on_new_ack(cum_ack);
  } else if (flight_segments() > 0) {
    on_dup_ack();
  }
}

void TcpSource::on_new_ack(int64_t cum_ack) {
  const int64_t newly_acked = cum_ack - snd_una_;
  snd_una_ = cum_ack;
  dup_acks_ = 0;
  rto_backoff_ = 0;
  rtx_in_flight_.erase(rtx_in_flight_.begin(),
                       rtx_in_flight_.lower_bound(cum_ack));

  if (in_recovery_) {
    if (cum_ack > recover_) {
      // Full ACK: recovery complete, deflate to ssthresh.
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    } else {
      // Partial ACK: the next hole is lost too — retransmit it immediately
      // and stay in recovery (NewReno).
      send_segment(snd_una_, /*is_retransmit=*/true);
      cwnd_ = std::max(2.0, cwnd_ - static_cast<double>(newly_acked) + 1.0);
    }
  } else if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(newly_acked);  // slow start
  } else {
    cwnd_ += static_cast<double>(newly_acked) / cwnd_;  // congestion avoidance
  }

  arm_rto();
  try_send();
}

void TcpSource::on_dup_ack() {
  ++dup_acks_;
  if (!in_recovery_ && dup_acks_ == 3) {
    enter_fast_recovery();
  } else if (in_recovery_) {
    cwnd_ += 1.0;  // window inflation per extra dup ACK
    try_send();
  }
}

void TcpSource::enter_fast_recovery() {
  ssthresh_ = std::max(flight_segments() / 2.0, 2.0);
  in_recovery_ = true;
  recover_ = next_seq_ - 1;
  send_segment(snd_una_, /*is_retransmit=*/true);
  cwnd_ = ssthresh_ + 3.0;
  arm_rto();
}

void TcpSource::on_timeout() {
  rto_timer_ = sim::kInvalidEventId;
  if (flight_segments() <= 0) {
    arm_rto();
    return;
  }
  ++timeouts_;
  ssthresh_ = std::max(flight_segments() / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = std::min(rto_backoff_ + 1, 6);
  send_segment(snd_una_, /*is_retransmit=*/true);
  arm_rto();
}

void TcpSource::arm_rto() {
  sched_->cancel(rto_timer_);
  rto_timer_ = sched_->schedule_after(rto(), [this] { on_timeout(); },
                                      sim::EventCategory::kTransport);
}

TimeDelta TcpSource::rto() const {
  TimeDelta base = srtt_ + rttvar_ * 4;
  base = std::max(base, kMinRto);
  return base * (int64_t{1} << rto_backoff_);
}

void TcpSource::update_rtt(TimeDelta sample) {
  if (sample <= TimeDelta::zero()) return;
  if (!have_rtt_) {
    have_rtt_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  const double err = std::abs((sample - srtt_).sec());
  rttvar_ = TimeDelta::from_sec(0.75 * rttvar_.sec() + 0.25 * err);
  srtt_ = TimeDelta::from_sec(0.875 * srtt_.sec() + 0.125 * sample.sec());
}

}  // namespace qa::tcp
