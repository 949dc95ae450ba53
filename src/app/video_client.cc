#include "app/video_client.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace qa::app {

namespace {
// Dedup window: large enough to cover any plausible reorder/duplicate span
// (a few RTTs of packets), small enough to never matter for memory.
constexpr size_t kDedupWindow = 512;
}  // namespace

VideoClient::VideoClient(sim::Scheduler* sched, double consumption_rate,
                         int max_layers, TimeDelta playout_delay,
                         bool keep_packet_log, TimeDelta rebuffer_debounce)
    : sched_(sched),
      model_(consumption_rate, max_layers),
      keep_log_(keep_packet_log),
      rebuffer_debounce_(rebuffer_debounce) {
  QA_CHECK(sched_ != nullptr);
  // Playout start is finalized at the first arrival; store the delay by
  // setting a far-future placeholder until then.
  playout_delay_ = playout_delay;
  // Resume from a rebuffer once the base holds the same reserve that gates
  // the initial playout start.
  resume_target_bytes_ = 0.25 * consumption_rate * playout_delay.sec();
}

bool VideoClient::is_duplicate(const sim::Packet& p) {
  const std::pair<int, int64_t> key{p.layer, p.layer_seq};
  const auto layer = static_cast<size_t>(p.layer);
  if (layer >= highest_accepted_.size()) {
    highest_accepted_.resize(layer + 1, std::numeric_limits<int64_t>::min());
  }
  if (p.layer_seq > highest_accepted_[layer]) {
    highest_accepted_[layer] = p.layer_seq;
  } else {
    for (const auto& seen : recent_) {
      if (seen == key) return true;
    }
  }
  if (recent_.size() < kDedupWindow) {
    recent_.push_back(key);
  } else {
    recent_[recent_next_] = key;
    recent_next_ = (recent_next_ + 1) % kDedupWindow;
  }
  return false;
}

void VideoClient::on_data(const sim::Packet& p) {
  if (p.layer < 0) return;  // not a video packet
  if (is_duplicate(p)) {
    // A wire duplicate (or a retransmission whose original did arrive —
    // e.g. declared lost through reordering). Crediting it twice would
    // inflate the buffer with media the player cannot use.
    ++duplicates_discarded_;
    if (journeys_ != nullptr && p.journey_id != kUntracedJourney) {
      journeys_->record_receiver_discard(p.journey_id, sched_->now());
    }
    return;
  }
  const TimePoint now = sched_->now();
  if (!started_) {
    started_ = true;
    first_arrival_ = now;
    // Playout begins after the startup delay, but like a real player only
    // once a minimum base-layer reserve exists (a quarter of the delay's
    // worth of data); the far-future placeholder is replaced below.
    model_.set_playout_start(now + TimeDelta::seconds(1'000'000));
    model_.add_layer(now);
    layers_seen_ = 1;
  }
  model_.advance(now);
  maybe_start_playout(now);
  // Layers are added by the server in order; the first packet of a new top
  // layer activates it client-side.
  while (p.layer >= layers_seen_) {
    model_.add_layer(now);
    ++layers_seen_;
  }
  model_.credit(p.layer, static_cast<double>(p.size_bytes));
  ++packets_;
  update_rebuffer_state(now);
  on_buffer_level_.emit(now, model_.buffer(0));

  if (keep_log_) {
    const double queued_ahead =
        model_.buffer(p.layer) - static_cast<double>(p.size_bytes);
    // Before playout begins the model's start time is a placeholder; use
    // the expected start (first arrival + startup delay) for estimates.
    // While rebuffering the start is a placeholder again — the earliest
    // believable playout is "now" (i.e. if playback resumed immediately).
    const TimePoint expected_start =
        playing_ ? (rebuffering_ ? now : model_.playout_start())
                 : first_arrival_ + playout_delay_;
    const TimePoint earliest = std::max(now, expected_start);
    log_.push_back(PacketRecord{
        p.layer, p.layer_seq, now,
        earliest + TimeDelta::from_sec(std::max(0.0, queued_ahead) /
                                       model_.consumption_rate())});
  }
}

void VideoClient::sync() {
  if (!started_) return;
  model_.advance(sched_->now());
  maybe_start_playout(sched_->now());
  update_rebuffer_state(sched_->now());
}

void VideoClient::maybe_start_playout(TimePoint now) {
  if (playing_ || now - first_arrival_ < playout_delay_ ||
      model_.buffer(0) <
          0.25 * model_.consumption_rate() * playout_delay_.sec()) {
    return;
  }
  playing_ = true;
  model_.set_playout_start(now);
}

void VideoClient::update_rebuffer_state(TimePoint now) {
  if (!playing_) return;
  const TimeDelta stall_now = model_.base_stall_time();
  const TimeDelta stall_delta = stall_now - last_stall_;
  last_stall_ = stall_now;

  if (rebuffering_) {
    if (model_.buffer(0) >= resume_target_bytes_) {
      rebuffering_ = false;
      dry_ = false;
      model_.set_playout_start(now);
      rebuffers_.end_event(now);
      on_rebuffer_.emit(now, false);
    }
    return;
  }

  if (model_.buffer(0) > 0.0) {
    dry_ = false;
    return;
  }
  if (!dry_) {
    dry_ = true;
    // Stall accrues only while dry, so the accrual over this observation
    // interval dates the instant the buffer actually ran out.
    dry_since_ = now - stall_delta;
  }
  if (now - dry_since_ >= rebuffer_debounce_) {
    rebuffering_ = true;
    // Pause consumption: push the model's playout start into the far
    // future; resume rewinds it to the resume instant.
    model_.set_playout_start(now + TimeDelta::seconds(1'000'000));
    rebuffers_.begin_event(dry_since_, now);
    on_rebuffer_.emit(now, true);
  }
}

double VideoClient::buffer(int layer) const { return model_.buffer(layer); }

double VideoClient::total_buffer() const { return model_.total_buffer(); }

TimeDelta VideoClient::base_stall() const {
  return model_.base_stall_time() + rebuffers_.total_paused(sched_->now());
}

}  // namespace qa::app
