// Sender-side mirror of the receiver's per-layer playout buffers.
//
// The QA decisions run at the server (§2): the server knows what it sent,
// when each layer's playout started, and (through RAP's loss feedback)
// which packets never arrived, so it can track each layer's buffered bytes
// without receiver reports. Consumption is continuous at rate C per active
// layer, beginning at the later of the layer's add time and the global
// playout start (the client's startup delay). A buffer cannot go negative:
// when consumption meets an empty buffer the layer underflows — recorded
// per layer, and for the base layer accumulated as stall time.
//
// In-flight data (roughly one RTT's worth) is credited at send time, so the
// mirror leads the client's true buffer by a small, bounded amount; the
// integration tests bound that divergence.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.h"

namespace qa::core {

class ReceiverModel {
 public:
  ReceiverModel(double consumption_rate, int max_layers);

  // Consumption starts no earlier than this (startup/playout delay).
  void set_playout_start(TimePoint t) { playout_start_ = t; }
  TimePoint playout_start() const { return playout_start_; }

  // Advances the playout clock to `now`, consuming from every active
  // layer's buffer. Call before reading buffers or mutating state.
  void advance(TimePoint now);

  // Activates the next layer (buffer starts empty, consumption from
  // max(now, playout_start)). Returns its index.
  int add_layer(TimePoint now);

  // Deactivates the top layer; returns the bytes still buffered for it at
  // drop time (the paper's buf_drop efficiency input). The residual is
  // still played out by the client but no longer counts as protection.
  double drop_top_layer(TimePoint now);

  // A packet of `bytes` for `layer` was transmitted.
  void credit(int layer, double bytes);
  // A previously credited packet was reported lost.
  void debit_loss(int layer, double bytes);

  int active_layers() const { return active_; }
  // Buffered bytes of `layer`; 0 for a layer that is not active.
  double buffer(int layer) const;
  // Buffers of the active layers, base first (size == active_layers()).
  // A view of the model's own storage: no copy, and it tracks later
  // credits, drains, adds and drops.
  const std::vector<double>& buffers() const { return buf_; }
  double total_buffer() const;

  // Underflow accounting. An underflow event is a transition into the
  // empty-while-consuming state for an active layer.
  int64_t underflow_events(int layer) const;
  int64_t total_underflow_events() const;
  // Layers that underflowed since the last call (event flags are cleared).
  std::vector<int> take_underflows();

  // Starvation accounting: every layer accumulates the bytes its playout
  // missed (consumption attempted against an empty buffer); the balance
  // heals at a fraction of C while the layer is fed again, so isolated
  // single-packet jitter never looks like starvation. Returns the number
  // of active layers whose missed balance is at least `threshold_bytes`
  // and resets those balances.
  int take_starving(double threshold_bytes);
  // Cumulative time the base layer spent consuming from an empty buffer —
  // i.e. playback stall time.
  TimeDelta base_stall_time() const { return base_stall_; }

  double consumption_rate() const { return consumption_rate_; }

 private:
  struct Layer {
    TimePoint active_from;
    bool active = false;
    int64_t underflows = 0;
    bool underflow_flag = false;  // set on event, cleared by take_underflows
    bool empty_state = false;     // currently pinned at zero
    double missed = 0;            // starvation balance (bytes), heals over time
  };

  double consumption_rate_;
  std::vector<Layer> layers_;
  // Buffered bytes per active layer (size == active_), kept contiguous so
  // buffers() needs no copy; capacity is reserved for every layer.
  std::vector<double> buf_;
  int active_ = 0;
  TimePoint clock_;
  TimePoint playout_start_;
  TimeDelta base_stall_ = TimeDelta::zero();
};

}  // namespace qa::core
