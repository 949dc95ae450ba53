#include "util/journey.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace qa {

namespace {

// Bound on simultaneously-open journeys (and on losses awaiting a
// retransmitted copy). 64k packets in flight is far beyond any scenario
// the simulator runs; the cap only matters when ACKs never come back.
constexpr size_t kMaxOpenJourneys = 1u << 16;

}  // namespace

const char* journey_stage_name(JourneyStage stage) {
  switch (stage) {
    case JourneyStage::kSubmit: return "submit";
    case JourneyStage::kEnqueue: return "enqueue";
    case JourneyStage::kQueueDrop: return "queue_drop";
    case JourneyStage::kTxStart: return "tx_start";
    case JourneyStage::kTxComplete: return "tx_complete";
    case JourneyStage::kWireDrop: return "wire_drop";
    case JourneyStage::kOutageDrop: return "outage_drop";
    case JourneyStage::kDeliver: return "deliver";
    case JourneyStage::kReceiverDiscard: return "receiver_discard";
    case JourneyStage::kAck: return "ack";
    case JourneyStage::kLossDetected: return "loss_detected";
    case JourneyStage::kRetransmit: return "retransmit";
  }
  return "?";
}

const char* loss_cause_name(LossCause cause) {
  switch (cause) {
    case LossCause::kQueue: return "queue";
    case LossCause::kWire: return "wire";
    case LossCause::kOutage: return "outage";
    case LossCause::kReceiver: return "receiver";
  }
  return "?";
}

HopId JourneyRecorder::register_hop(const std::string& name) {
  for (size_t i = 0; i < hop_names_.size(); ++i) {
    if (hop_names_[i] == name) return static_cast<HopId>(i);
  }
  hop_names_.push_back(name);
  return static_cast<HopId>(hop_names_.size() - 1);
}

const std::string& JourneyRecorder::hop_name(HopId hop) const {
  QA_CHECK(hop >= 0 && static_cast<size_t>(hop) < hop_names_.size());
  return hop_names_[static_cast<size_t>(hop)];
}

namespace {

std::string concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

}  // namespace

Counter* JourneyRecorder::counter(
    Counter*& slot, std::initializer_list<std::string_view> name_parts) {
  if (slot == nullptr && registry_ != nullptr) {
    slot = &registry_->counter(concat(name_parts));
  }
  return slot;
}

Histogram* JourneyRecorder::histogram(
    Histogram*& slot, std::initializer_list<std::string_view> name_parts) {
  if (slot == nullptr && registry_ != nullptr) {
    slot = &registry_->histogram(concat(name_parts));
  }
  return slot;
}

JourneyRecorder::LayerInstruments& JourneyRecorder::layer_instruments(
    int16_t layer) {
  // Padding and other non-video payload (layer < 0) share slot 0.
  const size_t index = layer < 0 ? 0 : static_cast<size_t>(layer) + 1;
  if (index >= inst_.layers.size()) inst_.layers.resize(index + 1);
  LayerInstruments& li = inst_.layers[index];
  if (li.label.empty()) {
    li.label = layer < 0 ? "padding" : "layer";
    if (layer >= 0) li.label += std::to_string(layer);
  }
  return li;
}

JourneyRecorder::OpenJourney* JourneyRecorder::find_open(JourneyId id) {
  auto it = open_.find(id);
  return it == open_.end() ? nullptr : &it->second;
}

void JourneyRecorder::emit_span(JourneyId id, JourneyStage stage, HopId hop,
                                TimePoint at, const OpenJourney* open) {
  if (!on_span_.active()) return;
  JourneySpan span;
  span.id = id;
  span.stage = stage;
  span.at = at;
  span.hop = hop;
  if (open != nullptr) {
    span.flow = open->origin.flow;
    span.layer = open->origin.layer;
    span.seq = open->origin.seq;
    span.layer_seq = open->origin.layer_seq;
    span.size_bytes = open->origin.size_bytes;
  }
  on_span_.emit(span);
}

void JourneyRecorder::evict_if_over_cap() {
  while (open_.size() > kMaxOpenJourneys && !open_order_.empty()) {
    const JourneyId victim = open_order_.front();
    open_order_.pop_front();
    if (open_.erase(victim) > 0) {
      ++evicted_;
      if (Counter* c = counter(inst_.evicted, {"journey.evicted"})) c->inc();
    }
  }
  // The begin-order deque can accumulate ids already closed normally;
  // shed them so it tracks the map's size, not the run's length.
  while (open_order_.size() > 2 * kMaxOpenJourneys) {
    const JourneyId id = open_order_.front();
    open_order_.pop_front();
    if (open_.count(id) > 0) open_order_.push_back(id);
  }
  while (pending_retx_.size() > kMaxOpenJourneys &&
         !pending_retx_order_.empty()) {
    pending_retx_.erase(pending_retx_order_.front());
    pending_retx_order_.pop_front();
  }
}

JourneyId JourneyRecorder::begin_journey(const JourneyOrigin& origin,
                                         TimePoint at) {
  const JourneyId id = next_id_++;
  OpenJourney j;
  j.origin = origin;
  j.submit = at;

  JourneyStage stage = JourneyStage::kSubmit;
  if (origin.layer >= 0) {
    // A fresh packet re-carrying media whose loss the transport already
    // detected is a retransmission; remember the loss instant so the
    // delivery can report recovery latency.
    const auto key = std::make_pair(origin.layer, origin.layer_seq);
    auto it = pending_retx_.find(key);
    if (it != pending_retx_.end()) {
      j.is_retransmit = true;
      j.retx_loss_at = it->second;
      pending_retx_.erase(it);
      stage = JourneyStage::kRetransmit;
      ++retx_started_;
      if (Counter* c = counter(inst_.retx_started, {"journey.retx.started"})) {
        c->inc();
      }
    }
  }

  ++started_;
  if (Counter* c = counter(inst_.started, {"journey.started"})) c->inc();
  auto [it, inserted] = open_.emplace(id, std::move(j));
  QA_CHECK(inserted);
  open_order_.push_back(id);
  evict_if_over_cap();
  emit_span(id, stage, kNoHop, at, &it->second);
  return id;
}

void JourneyRecorder::attribute_loss(LossCause cause, const OpenJourney& j) {
  const auto i = static_cast<size_t>(cause);
  loss_by_cause_[i]++;
  const char* cause_name = loss_cause_name(cause);
  if (Counter* c = counter(inst_.lost[i], {"journey.lost.", cause_name})) {
    c->inc();
  }
  LayerInstruments& li = layer_instruments(j.origin.layer);
  if (Counter* c = counter(li.lost[i],
                           {"journey.", li.label, ".lost.", cause_name})) {
    c->inc();
  }
}

void JourneyRecorder::record_hop(JourneyId id, JourneyStage stage, HopId hop,
                                 TimePoint at) {
  if (id == kUntracedJourney) return;
  OpenJourney* j = find_open(id);
  emit_span(id, stage, hop, at, j);
  if (j == nullptr) return;  // evicted or never begun

  switch (stage) {
    case JourneyStage::kEnqueue:
      j->last_enqueue = at;
      j->enqueued = true;
      break;
    case JourneyStage::kTxStart:
      if (j->enqueued) {
        const double wait_ms = (at - j->last_enqueue).ms();
        if (Histogram* h =
                histogram(inst_.queue_wait_ms, {"journey.queue_wait_ms"})) {
          h->observe(wait_ms);
        }
        if (hop != kNoHop) {
          const auto h_index = static_cast<size_t>(hop);
          if (h_index >= inst_.hop_queue_wait_ms.size()) {
            inst_.hop_queue_wait_ms.resize(h_index + 1, nullptr);
          }
          if (Histogram* h = histogram(
                  inst_.hop_queue_wait_ms[h_index],
                  {"journey.hop.", hop_name(hop), ".queue_wait_ms"})) {
            h->observe(wait_ms);
          }
        }
        j->enqueued = false;
      }
      break;
    case JourneyStage::kQueueDrop:
      if (!j->dropped) attribute_loss(LossCause::kQueue, *j);
      j->dropped = true;
      break;
    case JourneyStage::kWireDrop:
      if (!j->dropped) attribute_loss(LossCause::kWire, *j);
      j->dropped = true;
      break;
    case JourneyStage::kOutageDrop:
      // A duplicate's copies can die individually; attribute once per
      // journey unless the original was already delivered (then the
      // orphaned copy is uninteresting).
      if (!j->dropped && !j->delivered) {
        attribute_loss(LossCause::kOutage, *j);
        j->dropped = true;
      }
      break;
    case JourneyStage::kTxComplete:
      break;
    default:
      QA_CHECK_MSG(false, "record_hop: endpoint stage "
                              << journey_stage_name(stage)
                              << " recorded as a hop stage");
  }
}

void JourneyRecorder::record_deliver(JourneyId id, TimePoint at) {
  if (id == kUntracedJourney) return;
  OpenJourney* j = find_open(id);
  emit_span(id, JourneyStage::kDeliver, kNoHop, at, j);
  if (j == nullptr) return;
  if (j->delivered) {
    // A wire duplicate of an already-delivered journey.
    ++duplicate_deliveries_;
    if (Counter* c = counter(inst_.duplicate_deliveries,
                             {"journey.duplicate_deliveries"})) {
      c->inc();
    }
    return;
  }
  j->delivered = true;
  ++delivered_;
  if (Counter* c = counter(inst_.delivered, {"journey.delivered"})) c->inc();

  const TimeDelta owd = at - j->submit;
  LayerInstruments& li = layer_instruments(j->origin.layer);
  if (Histogram* h =
          histogram(li.owd_ms, {"journey.", li.label, ".owd_ms"})) {
    h->observe(owd.ms());
  }
  if (j->origin.layer >= 0) {
    const size_t layer = static_cast<size_t>(j->origin.layer);
    if (last_owd_by_layer_.size() <= layer) {
      last_owd_by_layer_.resize(layer + 1, TimeDelta::nanos(-1));
    }
    const TimeDelta prev = last_owd_by_layer_[layer];
    if (prev >= TimeDelta::zero()) {
      const TimeDelta jitter = owd >= prev ? owd - prev : prev - owd;
      if (Histogram* h =
              histogram(li.jitter_ms, {"journey.", li.label, ".jitter_ms"})) {
        h->observe(jitter.ms());
      }
    }
    last_owd_by_layer_[layer] = owd;
  }

  if (j->is_retransmit) {
    ++retx_recovered_;
    if (Counter* c =
            counter(inst_.retx_recovered, {"journey.retx.recovered"})) {
      c->inc();
    }
    if (Histogram* h = histogram(inst_.retx_recovery_ms,
                                 {"journey.retx.recovery_ms"})) {
      h->observe((at - j->retx_loss_at).ms());
    }
  }
}

void JourneyRecorder::record_receiver_discard(JourneyId id, TimePoint at) {
  if (id == kUntracedJourney) return;
  OpenJourney* j = find_open(id);
  emit_span(id, JourneyStage::kReceiverDiscard, kNoHop, at, j);
  if (j == nullptr) return;
  attribute_loss(LossCause::kReceiver, *j);
}

void JourneyRecorder::record_ack(JourneyId id, TimePoint at) {
  if (id == kUntracedJourney) return;
  auto it = open_.find(id);
  OpenJourney* j = it == open_.end() ? nullptr : &it->second;
  emit_span(id, JourneyStage::kAck, kNoHop, at, j);
  if (j == nullptr) return;
  ++acked_;
  if (Counter* c = counter(inst_.acked, {"journey.acked"})) c->inc();
  if (Histogram* h = histogram(inst_.ack_rtt_ms, {"journey.ack_rtt_ms"})) {
    h->observe((at - j->submit).ms());
  }
  open_.erase(it);  // the lifecycle is complete
}

void JourneyRecorder::record_loss_detected(JourneyId id, TimePoint at) {
  if (id == kUntracedJourney) return;
  auto it = open_.find(id);
  OpenJourney* j = it == open_.end() ? nullptr : &it->second;
  emit_span(id, JourneyStage::kLossDetected, kNoHop, at, j);
  if (j == nullptr) return;
  ++transport_losses_;
  if (Counter* c = counter(inst_.losses_detected,
                           {"journey.transport.losses_detected"})) {
    c->inc();
  }
  if (Histogram* h =
          histogram(inst_.loss_detect_ms, {"journey.loss_detect_ms"})) {
    h->observe((at - j->submit).ms());
  }
  // A packet the transport gave up on that no hop reported dropping was
  // either reordered past the dup-ack window or is still in flight; it
  // stays unattributed rather than guessed.
  if (j->origin.layer >= 0) {
    const auto key = std::make_pair(j->origin.layer, j->origin.layer_seq);
    if (pending_retx_.emplace(key, at).second) {
      pending_retx_order_.push_back(key);
    }
    evict_if_over_cap();
  }
  open_.erase(it);
}

}  // namespace qa
