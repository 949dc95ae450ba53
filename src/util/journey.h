// Packet-journey causal tracing.
//
// Every traced packet gets a stable 64-bit journey id at its source; the
// stations it passes (source, link queues, transmitters, the wire, the
// receiver, the ACK path) append hop-level span records against that id.
// The recorder folds completed journeys into per-layer lifecycle
// aggregates — one-way delay and jitter histograms, loss attribution by
// cause (queue vs. wire vs. outage vs. receiver), retransmission recovery
// latency, time-in-queue percentiles — all exported through a bound
// MetricsRegistry, and re-emits every span through an Event so exporters
// (Chrome trace lanes, the flight recorder) can subscribe without the
// recorder knowing them.
//
// Cost discipline (the event-bus rule): components hold a nullable
// JourneyRecorder* and guard every record site with a single branch, so a
// run without tracing pays one pointer compare per site and nothing else.
// Packets with journey_id 0 (foreign flows, ACKs) are ignored even when a
// recorder is attached.
//
// Memory is bounded: open journeys are capped (oldest evicted and counted)
// so a sink that never ACKs cannot grow the map without limit.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/event.h"
#include "util/metrics_registry.h"
#include "util/time.h"

namespace qa {

using JourneyId = uint64_t;
inline constexpr JourneyId kUntracedJourney = 0;

// A station a packet can pass on its way; hop-scoped stages carry the
// HopId of the link that recorded them.
enum class JourneyStage : uint8_t {
  kSubmit = 0,        // source handed the packet to the network
  kEnqueue,           // accepted into a link queue
  kQueueDrop,         // refused by a link queue (tail/RED drop)
  kTxStart,           // began serialization
  kTxComplete,        // finished serialization (pre wire-loss)
  kWireDrop,          // lost on the wire (loss model / impairment)
  kOutageDrop,        // killed by a link outage
  kDeliver,           // arrived at the receiving endpoint
  kReceiverDiscard,   // discarded by the receiver (duplicate)
  kAck,               // source heard the acknowledgment
  kLossDetected,      // transport declared the packet lost
  kRetransmit,        // a fresh journey re-carrying lost media
};
inline constexpr int kJourneyStageCount = 12;
const char* journey_stage_name(JourneyStage stage);

// Why a packet never reached the application, for the attribution
// counters. kReceiver covers receiver-side discards (wire duplicates).
enum class LossCause : uint8_t { kQueue = 0, kWire, kOutage, kReceiver };
inline constexpr int kLossCauseCount = 4;
const char* loss_cause_name(LossCause cause);

using HopId = int32_t;
inline constexpr HopId kNoHop = -1;

// Identity a source stamps on a new journey.
struct JourneyOrigin {
  int32_t flow = -1;
  int16_t layer = -1;  // video layer; -1 for padding / non-video payload
  int64_t seq = -1;
  int64_t layer_seq = -1;
  int32_t size_bytes = 0;
};

// One hop-level record, as re-emitted to span subscribers. Origin fields
// are resolved from the recorder's open-journey table; an evicted or
// unknown id yields layer/flow of -1.
struct JourneySpan {
  JourneyId id = kUntracedJourney;
  JourneyStage stage = JourneyStage::kSubmit;
  TimePoint at;
  HopId hop = kNoHop;
  int32_t flow = -1;
  int16_t layer = -1;
  int64_t seq = -1;
  int64_t layer_seq = -1;
  int32_t size_bytes = 0;
};

class JourneyRecorder {
 public:
  JourneyRecorder() = default;
  JourneyRecorder(const JourneyRecorder&) = delete;
  JourneyRecorder& operator=(const JourneyRecorder&) = delete;

  // Export aggregates through `registry` (instruments under "journey.*",
  // created lazily as the first matching sample arrives). Nullable; must
  // outlive the recorder's last record_* call.
  void bind_metrics(MetricsRegistry* registry) {
    registry_ = registry;
    inst_ = Instruments{};
  }

  // Names a hop (a link's transmitter) for span records and the per-hop
  // queue-wait histograms. Idempotent per name.
  HopId register_hop(const std::string& name);
  const std::string& hop_name(HopId hop) const;

  // --- Record points ------------------------------------------------------
  // Source: opens the journey and records kSubmit (or kRetransmit when the
  // origin's (layer, layer_seq) matches a previously detected loss).
  JourneyId begin_journey(const JourneyOrigin& origin, TimePoint at);
  // Link-level stages (kEnqueue/kQueueDrop/kTxStart/kTxComplete/kWireDrop/
  // kOutageDrop).
  void record_hop(JourneyId id, JourneyStage stage, HopId hop, TimePoint at);
  // Endpoint stages.
  void record_deliver(JourneyId id, TimePoint at);
  void record_receiver_discard(JourneyId id, TimePoint at);
  void record_ack(JourneyId id, TimePoint at);
  void record_loss_detected(JourneyId id, TimePoint at);

  // Every span, after aggregation. Subscribers see resolved origin fields.
  Event<const JourneySpan&>& on_span() { return on_span_; }

  // --- Aggregate accessors (tests / reports) ------------------------------
  int64_t journeys_started() const { return started_; }
  int64_t journeys_delivered() const { return delivered_; }
  int64_t journeys_acked() const { return acked_; }
  int64_t journeys_evicted() const { return evicted_; }
  int64_t duplicate_deliveries() const { return duplicate_deliveries_; }
  int64_t losses(LossCause cause) const {
    return loss_by_cause_[static_cast<size_t>(cause)];
  }
  int64_t transport_losses_detected() const { return transport_losses_; }
  int64_t retransmits_started() const { return retx_started_; }
  int64_t retransmits_recovered() const { return retx_recovered_; }
  size_t open_journeys() const { return open_.size(); }
  size_t hops() const { return hop_names_.size(); }

 private:
  struct OpenJourney {
    JourneyOrigin origin;
    TimePoint submit;
    TimePoint last_enqueue;
    bool enqueued = false;
    bool delivered = false;
    bool dropped = false;
    // Set when this journey re-carries media whose loss was detected at
    // `retx_loss_at` (retransmission recovery latency = deliver - that).
    bool is_retransmit = false;
    TimePoint retx_loss_at;
  };

  // Registry instruments, looked up on first use and cached (the registry
  // hands out stable references), so the per-packet paths neither build
  // names nor search the registry. A row still appears only with its
  // first sample.
  struct LayerInstruments {
    std::string label;  // "layer<k>" or "padding"
    Histogram* owd_ms = nullptr;
    Histogram* jitter_ms = nullptr;
    Counter* lost[kLossCauseCount] = {};
  };
  struct Instruments {
    Counter* started = nullptr;
    Counter* evicted = nullptr;
    Counter* retx_started = nullptr;
    Counter* retx_recovered = nullptr;
    Counter* delivered = nullptr;
    Counter* duplicate_deliveries = nullptr;
    Counter* acked = nullptr;
    Counter* losses_detected = nullptr;
    Counter* lost[kLossCauseCount] = {};
    Histogram* queue_wait_ms = nullptr;
    Histogram* retx_recovery_ms = nullptr;
    Histogram* ack_rtt_ms = nullptr;
    Histogram* loss_detect_ms = nullptr;
    std::vector<Histogram*> hop_queue_wait_ms;  // by HopId
    std::vector<LayerInstruments> layers;       // by layer + 1 (padding 0)
  };

  void emit_span(JourneyId id, JourneyStage stage, HopId hop, TimePoint at,
                 const OpenJourney* open);
  OpenJourney* find_open(JourneyId id);
  void attribute_loss(LossCause cause, const OpenJourney& j);
  void evict_if_over_cap();
  // The instrument `slot` caches, created on first use under the name
  // `name_parts` concatenate; null without a bound registry.
  Counter* counter(Counter*& slot,
                   std::initializer_list<std::string_view> name_parts);
  Histogram* histogram(Histogram*& slot,
                       std::initializer_list<std::string_view> name_parts);
  LayerInstruments& layer_instruments(int16_t layer);

  MetricsRegistry* registry_ = nullptr;
  Instruments inst_;
  Event<const JourneySpan&> on_span_;

  JourneyId next_id_ = 1;
  // Keyed lookups and capped eviction only — never iterated (the
  // unordered-iter analyzer rule): eviction walks open_order_, and every
  // exported aggregate is updated incrementally at record time, so hash
  // iteration order cannot reach metrics, traces, or digests.
  std::unordered_map<JourneyId, OpenJourney> open_;
  std::deque<JourneyId> open_order_;  // begin order, for capped eviction

  // Detected losses awaiting a retransmitted copy, keyed (layer,
  // layer_seq); bounded alongside the open map.
  std::map<std::pair<int16_t, int64_t>, TimePoint> pending_retx_;
  std::deque<std::pair<int16_t, int64_t>> pending_retx_order_;

  std::vector<std::string> hop_names_;
  // Per-layer previous one-way delay, the jitter reference; negative
  // sentinel until the layer's first delivery.
  std::vector<TimeDelta> last_owd_by_layer_;

  int64_t started_ = 0;
  int64_t delivered_ = 0;
  int64_t acked_ = 0;
  int64_t evicted_ = 0;
  int64_t duplicate_deliveries_ = 0;
  int64_t transport_losses_ = 0;
  int64_t retx_started_ = 0;
  int64_t retx_recovered_ = 0;
  int64_t loss_by_cause_[kLossCauseCount] = {0, 0, 0, 0};
};

}  // namespace qa
