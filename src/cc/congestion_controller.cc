#include "cc/congestion_controller.h"

#include <algorithm>

#include "cc/nada_source.h"
#include "cc/rap_source.h"
#include "cc/tfrc_source.h"
#include "util/logging.h"

namespace qa::cc {
namespace {
// Quiescence (ACK starvation) handling, shared by all backends. The source
// goes quiescent once at least three sends have gone unanswered AND no ACK
// has arrived for kStarvationSrttFactor * SRTT — but never sooner than a
// few packet gaps plus an RTO, so a healthy flow pacing at the rate floor
// (IPG >> SRTT, every packet answered) is not mistaken for a dead path.
// While quiescent it sends probe packets at exponentially backed-off
// intervals (starting near the RTO, doubling up to kProbeIntervalCap); the
// first ACK exits quiescence with a slow restart from min_rate — paced,
// never a burst.
constexpr double kStarvationSrttFactor = 10.0;
constexpr TimeDelta kProbeIntervalCap = TimeDelta::seconds(2);
}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kRap:
      return "rap";
    case Backend::kTfrc:
      return "tfrc";
    case Backend::kNada:
      return "nada";
  }
  return "unknown";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {Backend::kRap, Backend::kTfrc,
                                            Backend::kNada};
  return kAll;
}

std::unique_ptr<CongestionController> make_controller(
    Backend backend, sim::Scheduler* sched, sim::Node* local,
    sim::NodeId peer, sim::FlowId flow, const CcParams& params) {
  switch (backend) {
    case Backend::kRap:
      return std::make_unique<RapSource>(sched, local, peer, flow, params);
    case Backend::kTfrc:
      return std::make_unique<TfrcSource>(sched, local, peer, flow, params);
    case Backend::kNada:
      return std::make_unique<NadaSource>(sched, local, peer, flow, params);
  }
  QA_CHECK(false);
  return nullptr;
}

CongestionController::CongestionController(sim::Scheduler* sched,
                                           sim::Node* local, sim::NodeId peer,
                                           sim::FlowId flow, CcParams params)
    : sched_(sched),
      local_(local),
      peer_(peer),
      flow_(flow),
      params_(params),
      rate_(params.initial_rate),
      srtt_(params.initial_rtt),
      rttvar_(params.initial_rtt / 2) {
  QA_CHECK(params_.packet_size > 0);
  QA_CHECK(rate_.bps() > 0);
}

void CongestionController::start() {
  const TimeDelta defer = params_.start_time > sched_->now()
                              ? params_.start_time - sched_->now()
                              : TimeDelta::zero();
  last_ack_at_ = sched_->now() + defer;
  send_timer_ = sched_->schedule_after(defer, [this] { send_next(); },
                                       sim::EventCategory::kTransport);
  step_timer_ = sched_->schedule_after(defer + step_interval(),
                                       [this] { step(); },
                                       sim::EventCategory::kTransport);
}

void CongestionController::stop() {
  if (stopped_) return;
  stopped_ = true;
  sched_->cancel(send_timer_);
  sched_->cancel(step_timer_);
  send_timer_ = sim::kInvalidEventId;
  step_timer_ = sim::kInvalidEventId;
  history_.clear();
}

TimeDelta CongestionController::current_ipg() const {
  return rate_.transmit_time(params_.packet_size);
}

TimeDelta CongestionController::starvation_threshold() const {
  // A healthy-but-slow flow hears one ACK per IPG, so silence only means a
  // dead feedback path once it spans several packet opportunities *plus* the
  // retransmission timeout; the SRTT factor dominates at normal rates.
  return std::max(srtt_ * kStarvationSrttFactor,
                  current_ipg() * 3 + rto());
}

void CongestionController::maybe_enter_quiescence() {
  if (quiescent_) return;
  // Starvation means *unanswered* sends, not mere silence: a slow flow
  // pacing at the floor hears one ACK per (long) IPG and must not mistake
  // the gap for a dead path — nor may a just-restarted flow whose first
  // paced packet is still a second away re-trigger on its own quiet.
  if (sent_since_ack_ < 3) return;
  if (sched_->now() - last_ack_at_ < starvation_threshold()) return;
  quiescent_ = true;
  ++quiescence_entries_;
  set_rate(params_.min_rate);
  // First probe after roughly an RTO (never tighter than the floor pacing),
  // doubling from there up to the cap.
  probe_interval_ = std::max(rto(), current_ipg());
  on_quiescence_.emit(sched_->now(), true);
}

TimeDelta CongestionController::next_probe_interval() {
  const TimeDelta gap = probe_interval_;
  probe_interval_ = std::min(probe_interval_ * 2, kProbeIntervalCap);
  return gap;
}

void CongestionController::exit_quiescence() {
  quiescent_ = false;
  // Slow restart: resume paced sending from the rate floor and let the
  // backend's increase path rebuild the rate — the restore must not
  // produce a burst. The pending probe timer is replaced by a normally
  // paced send.
  set_rate(params_.min_rate);
  sched_->cancel(send_timer_);
  send_timer_ = sched_->schedule_after(current_ipg(), [this] { send_next(); },
                                       sim::EventCategory::kTransport);
  on_quiescence_.emit(sched_->now(), false);
}

void CongestionController::send_next() {
  if (stopped_) return;
  check_timeouts();
  maybe_enter_quiescence();

  sim::Packet p;
  p.src = local_->id();
  p.dst = peer_;
  p.flow_id = flow_;
  p.type = sim::PacketType::kData;
  p.size_bytes = params_.packet_size;
  p.seq = next_seq_++;
  p.ts_sent = sched_->now();
  if (tagger_) tagger_(p);
  if (journeys_ != nullptr) {
    JourneyOrigin origin;
    origin.flow = flow_;
    origin.layer = p.layer;
    origin.seq = p.seq;
    origin.layer_seq = p.layer_seq;
    origin.size_bytes = p.size_bytes;
    p.journey_id = journeys_->begin_journey(origin, sched_->now());
  }

  history_.push_back(HistoryEntry{p, false, false});
  ++packets_sent_;
  ++sent_since_ack_;
  local_->send(p);

  const TimeDelta gap = quiescent_ ? next_probe_interval() : current_ipg();
  send_timer_ = sched_->schedule_after(gap, [this] { send_next(); },
                                       sim::EventCategory::kTransport);
}

void CongestionController::step() {
  if (stopped_) return;
  on_step();
  backoff_since_step_ = false;
  ack_since_step_ = false;
  schedule_step();
}

void CongestionController::schedule_step() {
  step_timer_ = sched_->schedule_after(step_interval(), [this] { step(); },
                                       sim::EventCategory::kTransport);
}

void CongestionController::on_packet(const sim::Packet& p) {
  if (stopped_) return;  // late ACKs after a churn departure
  if (p.type != sim::PacketType::kAck) return;
  process_ack(p);
}

void CongestionController::process_ack(const sim::Packet& ack) {
  ack_since_step_ = true;
  last_ack_at_ = sched_->now();
  sent_since_ack_ = 0;
  if (quiescent_) exit_quiescence();
  // RTT sample from the echoed send timestamp.
  const TimeDelta sample = sched_->now() - ack.ts_echo;
  update_rtt(sample);
  on_feedback(ack, sample);

  HistoryEntry* e = find_entry(ack.ack_seq);
  if (e != nullptr && !e->acked && !e->lost) {
    e->acked = true;
    if (journeys_ != nullptr && e->pkt.journey_id != kUntracedJourney) {
      journeys_->record_ack(e->pkt.journey_id, sched_->now());
    }
  }
  detect_losses_from_ack(ack.ack_seq);
  prune_history();
}

bool CongestionController::declare_lost(HistoryEntry& e, bool timeout) {
  e.lost = true;
  ++losses_;
  on_loss_.emit(sched_->now(), e.pkt, timeout);
  if (journeys_ != nullptr && e.pkt.journey_id != kUntracedJourney) {
    journeys_->record_loss_detected(e.pkt.journey_id, sched_->now());
  }
  return e.pkt.seq > recovery_until_seq_;
}

void CongestionController::detect_losses_from_ack(int64_t acked_seq) {
  // A packet is lost once three packets sent after it have been ACKed; with
  // per-packet ACKs, an ACK for seq s condemns outstanding seq <= s-3.
  const int64_t condemned_below = acked_seq - 2;
  bool trigger_backoff = false;
  for (auto& e : history_) {
    if (e.pkt.seq >= condemned_below) break;
    if (e.acked || e.lost) continue;
    trigger_backoff |= declare_lost(e, /*timeout=*/false);
  }
  if (trigger_backoff) congestion_event();
}

void CongestionController::check_timeouts() {
  // Conservative timeout: an outstanding packet older than the RTO is lost.
  bool trigger_backoff = false;
  for (auto& e : history_) {
    if (e.acked || e.lost) continue;
    if (sched_->now() - e.pkt.ts_sent < rto()) break;  // ts_sent ascends
    trigger_backoff |= declare_lost(e, /*timeout=*/true);
  }
  if (trigger_backoff) congestion_event();
  prune_history();
}

void CongestionController::congestion_event() {
  ++backoffs_;
  backoff_since_step_ = true;
  // Everything already in flight belongs to this congestion event: further
  // losses among those packets must not trigger another response.
  recovery_until_seq_ = std::max(recovery_until_seq_, next_seq_ - 1);
  on_congestion();
  // Post-event sanity: the backend's decrease must land on the clamped
  // range and keep the pacer well-defined — a zero or negative rate would
  // make the next inter-packet gap infinite (stream wedged) or negative
  // (scheduling into the past).
  QA_INVARIANT_MSG(rate_ >= params_.min_rate,
                   "post-backoff rate " << rate_.bps()
                                        << " B/s below floor "
                                        << params_.min_rate.bps());
  QA_INVARIANT_MSG(current_ipg() > TimeDelta::zero(),
                   "post-backoff ipg collapsed: rate=" << rate_.bps()
                                                       << " B/s");
  QA_INVARIANT_MSG(srtt_ > TimeDelta::zero(),
                   "srtt must stay positive, got " << srtt_);
  on_backoff_.emit(sched_->now(), rate_);
}

void CongestionController::update_rtt(TimeDelta sample) {
  if (sample <= TimeDelta::zero()) return;
  if (!have_rtt_sample_) {
    have_rtt_sample_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  // TCP-style EWMA (RFC 6298 constants).
  const double err = std::abs((sample - srtt_).sec());
  rttvar_ = TimeDelta::from_sec(0.75 * rttvar_.sec() + 0.25 * err);
  srtt_ = TimeDelta::from_sec(0.875 * srtt_.sec() + 0.125 * sample.sec());
}

void CongestionController::set_rate(Rate r) {
  const double old_bps = rate_.bps();
  rate_ = Rate::bytes_per_sec(std::max(r.bps(), params_.min_rate.bps()));
  if (rate_.bps() != old_bps) on_rate_change_.emit(sched_->now(), rate_);
}

TimeDelta CongestionController::rto() const {
  const TimeDelta base = srtt_ + rttvar_ * 4;
  // Floor well above one SRTT so queue-induced RTT inflation does not cause
  // spurious timeouts; ACK-gap detection handles the common case anyway.
  return std::max(base * 2, TimeDelta::millis(20));
}

void CongestionController::prune_history() {
  while (!history_.empty() &&
         (history_.front().acked || history_.front().lost)) {
    history_.pop_front();
  }
  // Bound memory against pathological ACK loss.
  while (history_.size() > 10000) history_.pop_front();
}

CongestionController::HistoryEntry* CongestionController::find_entry(
    int64_t seq) {
  if (history_.empty()) return nullptr;
  const int64_t first = history_.front().pkt.seq;
  const int64_t idx = seq - first;
  if (idx < 0 || idx >= static_cast<int64_t>(history_.size())) return nullptr;
  HistoryEntry& e = history_[static_cast<size_t>(idx)];
  QA_CHECK(e.pkt.seq == seq);
  return &e;
}

}  // namespace qa::cc
