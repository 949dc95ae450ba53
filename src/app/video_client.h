// VideoClient: the receiver-side ground truth.
//
// The client consumes the packets a RapSink delivers, maintains its own
// per-layer playout buffers (the same ReceiverModel the server mirrors,
// fed by *arrivals* instead of transmissions) and records the user-visible
// outcomes: base-layer stalls, per-packet arrival→playout latency, and the
// playout sequence needed for fig-2 style plots. Integration tests compare
// these buffers against the server's mirror to bound the mirror's error.
//
// Playout underrun is an explicit rebuffer state: when the base layer stays
// dry past a short debounce (isolated single-packet jitter never pauses
// playback), the client pauses consumption, logs a RebufferEvent, and
// resumes only once the base layer holds the same reserve that gates the
// initial playout start. Stall time is exact either way: the model accrues
// dry-while-consuming time, pauses accrue in the rebuffer log, and the two
// intervals never overlap.
#pragma once

#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/receiver_model.h"
#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/event.h"
#include "util/journey.h"

namespace qa::app {

class VideoClient {
 public:
  struct PacketRecord {
    int layer;
    int64_t layer_seq;
    TimePoint arrival;
    // Estimated playout instant: arrival plus the time to play the bytes
    // already queued in front of this packet in its layer.
    TimePoint playout;
  };

  VideoClient(sim::Scheduler* sched, double consumption_rate, int max_layers,
              TimeDelta playout_delay, bool keep_packet_log = false,
              TimeDelta rebuffer_debounce = TimeDelta::millis(200));

  // Hook for RapSink::set_consumer.
  void on_data(const sim::Packet& p);

  // Brings consumption up to the current simulated time.
  void sync();

  int layers_seen() const { return layers_seen_; }
  double buffer(int layer) const;
  double total_buffer() const;
  // Total user-visible interruption: dry-while-consuming time plus paused
  // (rebuffering) time.
  TimeDelta base_stall() const;
  bool rebuffering() const { return rebuffering_; }
  const core::RebufferLog& rebuffers() const { return rebuffers_; }
  int64_t packets_received() const { return packets_; }

  // --- Trace points (util/event.h). ---------------------------------------
  // Rebuffer transitions: true when playout pauses, false when it resumes.
  Event<TimePoint, bool>& on_rebuffer() { return on_rebuffer_; }
  // Base-layer buffer level after each credited arrival (bytes). Per-packet
  // hot path: emission is a single branch when nobody subscribes.
  Event<TimePoint, double>& on_buffer_level() { return on_buffer_level_; }

  // Exact wire duplicates discarded on arrival (see on_data).
  int64_t duplicates_discarded() const { return duplicates_discarded_; }

  // Attaches journey tracing: a traced packet discarded as a duplicate is
  // attributed as a receiver-side loss. Nullptr detaches.
  void set_journey_recorder(JourneyRecorder* recorder) {
    journeys_ = recorder;
  }
  const std::vector<PacketRecord>& packet_log() const { return log_; }
  const core::ReceiverModel& model() const { return model_; }

 private:
  void maybe_start_playout(TimePoint now);
  void update_rebuffer_state(TimePoint now);
  bool is_duplicate(const sim::Packet& p);

  sim::Scheduler* sched_;
  core::ReceiverModel model_;
  TimeDelta playout_delay_ = TimeDelta::zero();
  bool started_ = false;
  bool playing_ = false;
  TimePoint first_arrival_;
  int layers_seen_ = 0;
  int64_t packets_ = 0;
  bool keep_log_;
  std::vector<PacketRecord> log_;

  // Rebuffer state. dry_since_ backdates to the instant the base buffer ran
  // out (derived from the model's stall accrual, which only grows while
  // dry); the pause begins once the dry spell outlives the debounce.
  TimeDelta rebuffer_debounce_;
  double resume_target_bytes_ = 0;
  bool dry_ = false;
  bool rebuffering_ = false;
  TimePoint dry_since_;
  TimeDelta last_stall_ = TimeDelta::zero();
  core::RebufferLog rebuffers_;
  Event<TimePoint, bool> on_rebuffer_;
  Event<TimePoint, double> on_buffer_level_;

  // Recent (layer, layer_seq) arrivals, for discarding wire duplicates.
  // Bounded ring; legitimate retransmissions fill holes whose original
  // never arrived, so they are never filtered.
  std::vector<std::pair<int, int64_t>> recent_;
  size_t recent_next_ = 0;
  // Highest layer_seq accepted per layer. Every ring entry is an accepted
  // arrival, so an in-order packet above it cannot be in the ring and
  // skips the scan; reordered packets and repeats still scan.
  std::vector<int64_t> highest_accepted_;
  int64_t duplicates_discarded_ = 0;
  JourneyRecorder* journeys_ = nullptr;
};

}  // namespace qa::app
