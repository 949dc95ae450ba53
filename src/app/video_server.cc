#include "app/video_server.h"

#include <algorithm>

#include "util/logging.h"

namespace qa::app {

VideoServer::VideoServer(sim::Scheduler* sched,
                         cc::CongestionController* controller,
                         const core::AdapterConfig& adapter_cfg,
                         VideoServerOptions options)
    : sched_(sched),
      controller_(controller),
      options_(options),
      adapter_(adapter_cfg),
      next_layer_seq_(static_cast<size_t>(adapter_cfg.max_layers), 0),
      layer_bytes_(static_cast<size_t>(adapter_cfg.max_layers), 0),
      window_sent_(static_cast<size_t>(adapter_cfg.max_layers), 0.0) {
  QA_CHECK(sched_ != nullptr && controller_ != nullptr);
  controller_->set_payload_tagger([this](sim::Packet& p) { tag_packet(p); });
  loss_sub_ = controller_->on_loss().subscribe_scoped(
      [this](TimePoint t, const sim::Packet& p, bool) { on_loss(t, p); });
  backoff_sub_ = controller_->on_backoff().subscribe_scoped(
      [this](TimePoint t, Rate r) { on_backoff(t, r); });
  quiescence_sub_ = controller_->on_quiescence().subscribe_scoped(
      [this](TimePoint t, bool active) { on_quiescence(t, active); });
}

void VideoServer::detach_controller() {
  controller_->set_payload_tagger(nullptr);
  loss_sub_.reset();
  backoff_sub_.reset();
  quiescence_sub_.reset();
}

void VideoServer::tag_packet(sim::Packet& p) {
  const TimePoint now = sched_->now();
  if (!begun_) {
    begun_ = true;
    adapter_.begin(now);
  }
  // Retransmissions of important layers preempt new data: the hole they
  // fill is already scheduled for playout. The adapter still accounts the
  // slot (the bytes restore what the loss debited).
  if (!retx_queue_.empty()) {
    const PendingRetx rt = retx_queue_.front();
    retx_queue_.pop_front();
    p.layer = rt.layer;
    p.layer_seq = rt.layer_seq;
    ++retransmissions_;
    layer_bytes_[static_cast<size_t>(rt.layer)] += p.size_bytes;
    window_sent_[static_cast<size_t>(rt.layer)] +=
        static_cast<double>(p.size_bytes);
    // Restore the mirror bytes the loss debit removed.
    adapter_.on_retransmit(now, rt.layer, static_cast<double>(p.size_bytes));
    return;
  }

  const int layer = adapter_.on_send_opportunity(
      now, controller_->rate().bps(), controller_->slope_bps_per_sec(),
      static_cast<double>(p.size_bytes));
  if (layer == core::QualityAdapter::kPaddingSlot) {
    // Buffer targets are met and no layer can be added: the slot carries
    // padding so the congestion-control loop keeps its pacing while the
    // receiver's buffers stay bounded (paper footnote 2).
    p.layer = -1;
    ++padding_packets_;
    return;
  }
  QA_CHECK(layer >= 0 && layer < adapter_.config().max_layers);
  p.layer = static_cast<int16_t>(layer);
  p.layer_seq = next_layer_seq_[static_cast<size_t>(layer)]++;
  layer_bytes_[static_cast<size_t>(layer)] += p.size_bytes;
  window_sent_[static_cast<size_t>(layer)] +=
      static_cast<double>(p.size_bytes);
}

void VideoServer::on_loss(TimePoint now, const sim::Packet& data_pkt) {
  if (data_pkt.layer < 0) return;
  adapter_.on_packet_lost(now, data_pkt.layer,
                          static_cast<double>(data_pkt.size_bytes));
  if (data_pkt.layer < options_.retransmit_below_layer &&
      data_pkt.layer < adapter_.active_layers()) {
    // Worth resending only if the receiver still holds roughly an RTT of
    // that layer's media ahead of the hole; otherwise playout has passed.
    const double lead_needed =
        adapter_.config().consumption_rate * controller_->srtt().sec();
    if (adapter_.receiver().buffer(data_pkt.layer) >= lead_needed) {
      retx_queue_.push_back(PendingRetx{data_pkt.layer, data_pkt.layer_seq});
    } else {
      ++retx_abandoned_;
    }
  }
}

void VideoServer::on_backoff(TimePoint now, Rate new_rate) {
  if (!begun_) return;
  adapter_.on_backoff(now, new_rate.bps(), controller_->slope_bps_per_sec());
}

void VideoServer::on_quiescence(TimePoint now, bool active) {
  if (!begun_) return;
  if (active) {
    adapter_.enter_degraded(now);
  } else {
    adapter_.exit_degraded(now);
  }
}

void VideoServer::take_window_sent(std::span<double> out) {
  QA_CHECK(out.size() == window_sent_.size());
  std::copy(window_sent_.begin(), window_sent_.end(), out.begin());
  std::fill(window_sent_.begin(), window_sent_.end(), 0.0);
}

int64_t VideoServer::bytes_sent(int layer) const {
  QA_CHECK(layer >= 0 && layer < adapter_.config().max_layers);
  return layer_bytes_[static_cast<size_t>(layer)];
}

}  // namespace qa::app
