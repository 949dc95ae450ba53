// VideoServer: a stored layered stream + congestion-controlled transport +
// QualityAdapter.
//
// The server owns the paper's sender-side machinery: the congestion
// controller (RAP, TFRC, or NADA — any cc::CongestionController) paces
// packets and reports losses/backoffs/quiescence through its events; for
// every transmission slot the server asks the QualityAdapter which layer
// the packet should carry and tags it with a per-layer sequence number.
// Everything the adapter needs (rate, slope, losses, backoffs) comes from
// the backend-neutral controller; the server never names a concrete
// backend (DESIGN.md §17).
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "cc/congestion_controller.h"
#include "core/quality_adapter.h"
#include "sim/scheduler.h"
#include "util/event.h"

namespace qa::app {

struct VideoServerOptions {
  // Selective retransmission of the most important information (§1.3):
  // lost packets of layers 0..retransmit_below_layer-1 are resent in the
  // next transmission slots, provided the receiver still has enough
  // buffered media ahead of the hole to play the retransmission in time.
  // 0 disables retransmission (the paper's evaluated configuration).
  int retransmit_below_layer = 0;
};

class VideoServer {
 public:
  // Wires itself into `controller`: installs the payload tagger and
  // subscribes to its loss, backoff and quiescence events. Subscribing here,
  // before any observer attaches, makes the adapter act on each event
  // before observability records it. `controller` must outlive the server.
  // The stream is `adapter_cfg.max_layers` layers of
  // `adapter_cfg.consumption_rate` each (the paper's linear spacing).
  VideoServer(sim::Scheduler* sched, cc::CongestionController* controller,
              const core::AdapterConfig& adapter_cfg,
              VideoServerOptions options = {});
  // The subscriptions capture `this`.
  VideoServer(const VideoServer&) = delete;
  VideoServer& operator=(const VideoServer&) = delete;

  core::QualityAdapter& adapter() { return adapter_; }
  const core::QualityAdapter& adapter() const { return adapter_; }
  cc::CongestionController& controller() { return *controller_; }

  // Removes the tagger and the event subscriptions from the controller
  // (session teardown; the controller may outlive this server in churning
  // scenarios).
  void detach_controller();

  // Moves the bytes sent per layer since the last call into `out` (one
  // entry per layer) and starts a new window. Allocates nothing.
  void take_window_sent(std::span<double> out);
  int64_t bytes_sent(int layer) const;
  // Slots carrying padding because every buffer target was met.
  int64_t padding_packets() const { return padding_packets_; }
  // Retransmissions performed / abandoned as undeliverable in time.
  int64_t retransmissions() const { return retransmissions_; }
  int64_t retransmissions_abandoned() const { return retx_abandoned_; }

 private:
  void tag_packet(sim::Packet& p);
  void on_loss(TimePoint now, const sim::Packet& data_pkt);
  void on_backoff(TimePoint now, Rate new_rate);
  // Client feedback went away (ACK starvation) or returned: the adapter
  // drops to base-layer-only mode for the duration rather than thrashing
  // add/drop against a dead control loop.
  void on_quiescence(TimePoint now, bool active);

  sim::Scheduler* sched_;
  cc::CongestionController* controller_;
  VideoServerOptions options_;
  core::QualityAdapter adapter_;
  bool begun_ = false;
  std::vector<int64_t> next_layer_seq_;
  std::vector<int64_t> layer_bytes_;
  std::vector<double> window_sent_;
  int64_t padding_packets_ = 0;
  int64_t retransmissions_ = 0;
  int64_t retx_abandoned_ = 0;
  struct PendingRetx {
    int16_t layer;
    int64_t layer_seq;
  };
  std::deque<PendingRetx> retx_queue_;
  ScopedSubscription loss_sub_;
  ScopedSubscription backoff_sub_;
  ScopedSubscription quiescence_sub_;
};

}  // namespace qa::app
