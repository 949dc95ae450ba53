#include "core/quality_adapter.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace qa::core {
namespace {
constexpr double kEps = 1e-9;
constexpr double kMinSlope = 100.0;  // floor on S estimates (bytes/s^2)
// Time constant of the conservative rate estimate used for buffer targets
// and the add gate: targets are evaluated at min(instantaneous, EWMA) so a
// momentary sawtooth peak cannot shrink the protection requirements (the
// paper's "average bandwidth" consideration, §3.1).
constexpr TimeDelta kRateEwmaTau = TimeDelta::seconds(3);
}  // namespace

QualityAdapter::QualityAdapter(AdapterConfig cfg)
    : cfg_(cfg), receiver_(cfg.consumption_rate, cfg.max_layers) {
  QA_CHECK(cfg_.kmax >= 1);
  QA_CHECK(cfg_.drain_period > TimeDelta::zero());
  // Steady state allocates nothing: the plan storage is sized up front for
  // every layer the stream can have.
  send_credit_.reserve(static_cast<size_t>(cfg_.max_layers));
  plan_.drain_bytes.reserve(static_cast<size_t>(cfg_.max_layers));
  plan_.send_bytes.reserve(static_cast<size_t>(cfg_.max_layers));
  plan_seq_.reserve(cfg_.kmax, cfg_.max_layers);
}

void QualityAdapter::begin(TimePoint now) {
  QA_CHECK(!begun_);
  begun_ = true;
  receiver_.set_playout_start(now + cfg_.playout_delay);
  receiver_.add_layer(now);  // the base layer is always sent
  metrics_.record_layer_count(now, 1);
}

AimdModel QualityAdapter::model_for(double slope) const {
  return AimdModel{cfg_.consumption_rate, std::max(slope, kMinSlope)};
}

void QualityAdapter::update_rate_avg(TimePoint now, double rate,
                                     double slope) {
  if (!rate_avg_init_) {
    rate_avg_init_ = true;
    rate_avg_ = rate;
    slope_avg_ = slope;
    rate_avg_at_ = now;
    return;
  }
  const double dt = (now - rate_avg_at_).sec();
  if (dt <= 0) return;
  const double alpha = std::min(1.0, dt / kRateEwmaTau.sec());
  rate_avg_ += alpha * (rate - rate_avg_);
  slope_avg_ += alpha * (slope - slope_avg_);
  rate_avg_at_ = now;
}

double QualityAdapter::target_rate(double rate) const {
  // Conservative: a sawtooth peak must not shrink the buffer targets.
  return rate_avg_init_ ? std::min(rate, rate_avg_) : rate;
}

double QualityAdapter::smoothed_slope(double slope) const {
  // Queue bursts inflate the RTT momentarily and collapse the raw
  // S = P/RTT^2 estimate, which would ratchet the base layer's targets to
  // the worst excursion; smooth it instead.
  return rate_avg_init_ ? slope_avg_ : slope;
}

void QualityAdapter::drop_top(TimePoint now, double rate, const AimdModel& m,
                              bool poor_distribution) {
  const int na = receiver_.active_layers();
  QA_CHECK(na > 1);
  DropEvent e;
  e.time = now;
  e.layer = na - 1;
  e.total_buf = receiver_.total_buffer();
  e.required_buf = triangle_area(
      static_cast<double>(na) * m.consumption_rate - rate, m.slope);
  e.dropped_buf = receiver_.drop_top_layer(now);
  e.poor_distribution = poor_distribution;
  metrics_.record_drop(e);
  metrics_.record_layer_count(now, receiver_.active_layers());
  on_drop_.emit(e);
  plan_valid_ = false;
}

bool QualityAdapter::apply_drops(TimePoint now, double rate,
                                 const AimdModel& m) {
  bool dropped = false;
  int na = receiver_.active_layers();
  const double consumption = static_cast<double>(na) * m.consumption_rate;

  if (rate < consumption) {
    // §2.2 rule / critical situation: shed layers until the remaining
    // consumption is bridgeable with the buffered bytes (keep the largest
    // n with n*C <= R + sqrt(2*S*total)).
    const auto keepable = [&] {
      return layers_to_keep(rate, receiver_.active_layers(),
                            receiver_.total_buffer(), m);
    };
    int keep = keepable();
    while (receiver_.active_layers() > keep) {
      const int cur = receiver_.active_layers();
      const double required = triangle_area(
          static_cast<double>(cur) * m.consumption_rate - rate, m.slope);
      drop_top(now, rate, m,
               /*poor_distribution=*/receiver_.total_buffer() >= required);
      dropped = true;
      // Re-evaluate: dropping released that layer's buffered bytes from the
      // protection pool, so the rule can ask for another drop.
      keep = keepable();
    }

    // Material starvation with sufficient total buffering: only the
    // distribution could have prevented it (Table 2's numerator). Shed the
    // top layer to relieve the starved one. The threshold (a couple of
    // packets, at least half a planning period of consumption) keeps
    // single-packet jitter from counting.
    const double threshold =
        std::max(2.0 * last_packet_bytes_,
                 0.5 * m.consumption_rate * cfg_.drain_period.sec());
    const int starving = receiver_.take_starving(threshold);
    // Any materially starving layer forces a drop. A starving BASE layer is
    // the emergency case — playback itself is at risk — and equally sheds
    // the top layer to free bandwidth for the base.
    if (starving > 0 && receiver_.active_layers() > 1) {
      const int cur = receiver_.active_layers();
      const double required = triangle_area(
          static_cast<double>(cur) * m.consumption_rate - rate, m.slope);
      drop_top(now, rate, m,
               /*poor_distribution=*/receiver_.total_buffer() >= required);
      dropped = true;
    }
  }
  return dropped;
}

void QualityAdapter::rebuild_plan(TimePoint now, double rate,
                                  const AimdModel& m) {
  const int na = receiver_.active_layers();
  const double consumption = static_cast<double>(na) * m.consumption_rate;
  const double ref = std::max(rate_ref_, consumption);
  plan_drain_period(plan_, plan_seq_, receiver_.buffers(), na, rate, ref, m,
                    cfg_.kmax, cfg_.drain_period.sec(), cfg_.monotone,
                    cfg_.allocation,
                    /*min_drainable=*/2.0 * last_packet_bytes_);
  // Packets are indivisible, so a period can overshoot a layer's
  // entitlement by up to one packet; carry that debt into the next plan or
  // the layer would receive a whole extra packet every period.
  const size_t carried = std::min(send_credit_.size(), static_cast<size_t>(na));
  send_credit_.resize(static_cast<size_t>(na));
  for (size_t i = 0; i < send_credit_.size(); ++i) {
    const double carry = i < carried ? std::min(0.0, send_credit_[i]) : 0.0;
    send_credit_[i] = plan_.send_bytes[i] + carry;
  }
  plan_expiry_ = now + cfg_.drain_period;
  plan_valid_ = true;
}

int QualityAdapter::pick_drain_layer(TimePoint now, double rate,
                                     const AimdModel& m,
                                     double packet_bytes) {
  if (!plan_valid_ || now >= plan_expiry_ ||
      send_credit_.size() != static_cast<size_t>(receiver_.active_layers())) {
    rebuild_plan(now, rate, m);
  }
  // Base-layer protection override: when the base is down to its last
  // packets and is not ahead of its entitlement, feed it before anything
  // else — a stalled base layer is the one outcome the whole mechanism
  // exists to prevent.
  if (receiver_.buffer(0) < 2.0 * packet_bytes && !send_credit_.empty() &&
      send_credit_[0] > -packet_bytes) {
    send_credit_[0] -= packet_bytes;
    return 0;
  }

  // Highest remaining credit first: the layers the network must feed are
  // exactly those the plan did not cover from buffers. Near-ties (within a
  // packet) go to the layer with the smallest buffer — under a shortfall
  // the unpaid remainder must land on layers that can play from buffer,
  // not on a freshly added empty layer.
  auto pick = [&]() -> int {
    int best = -1;
    double best_credit = kEps;
    for (size_t i = 0; i < send_credit_.size(); ++i) {
      if (send_credit_[i] <= kEps) continue;
      const bool wins =
          best < 0 || send_credit_[i] > best_credit + packet_bytes ||
          (send_credit_[i] > best_credit - packet_bytes &&
           receiver_.buffer(static_cast<int>(i)) <
               receiver_.buffer(best));
      if (wins) {
        best_credit = std::max(best_credit, send_credit_[i]);
        best = static_cast<int>(i);
      }
    }
    return best;
  };
  int layer = pick();
  if (layer < 0) {
    // Entitlements for this period are paid; the remaining bandwidth is
    // surplus and chases the §4.1 buffer targets (preparing the next
    // layer's configuration when one could be added). When every target is
    // met too, the slot is padding: receiver buffering stays bounded by
    // the Kmax requirement (unless the surplus-ladder extension is on).
    const int prepare = cfg_.allocation == AllocationPolicy::kOptimal &&
                                receiver_.active_layers() < cfg_.max_layers
                            ? receiver_.active_layers() + 1
                            : 0;
    const FillDecision d = pick_fill_layer(
        receiver_.buffers(), receiver_.active_layers(), target_rate(rate),
        m, cfg_.kmax, cfg_.allocation, prepare, cfg_.surplus_ladder_depth);
    return d.layer >= 0 ? d.layer : kPaddingSlot;
  }
  send_credit_[static_cast<size_t>(layer)] -= packet_bytes;
  return layer;
}

void QualityAdapter::warm_start(TimePoint now,
                                const std::vector<double>& cached_bytes) {
  QA_CHECK_MSG(begun_, "call begin() before warm_start");
  QA_CHECK_MSG(receiver_.active_layers() == 1 && receiver_.total_buffer() == 0,
               "warm_start applies to a fresh session only");
  for (size_t i = 0; i < cached_bytes.size(); ++i) {
    const int layer = static_cast<int>(i);
    if (layer >= cfg_.max_layers) break;
    if (layer >= receiver_.active_layers()) {
      receiver_.add_layer(now);
      last_add_ = now;
      metrics_.record_add({now, receiver_.active_layers()});
      metrics_.record_layer_count(now, receiver_.active_layers());
      on_add_.emit(metrics_.adds().back());
    }
    receiver_.credit(layer, cached_bytes[i]);
  }
  plan_valid_ = false;
}

void QualityAdapter::enter_degraded(TimePoint now) {
  QA_CHECK_MSG(begun_, "call begin() before streaming");
  if (degraded_) return;
  degraded_ = true;
  ++degraded_entries_;
  receiver_.advance(now);
  const AimdModel m = model_for(smoothed_slope(slope_avg_));
  while (receiver_.active_layers() > 1) {
    drop_top(now, rate_avg_, m, /*poor_distribution=*/false);
  }
}

void QualityAdapter::set_adds_frozen(bool frozen, TimePoint now) {
  if (adds_frozen_ == frozen) return;
  adds_frozen_ = frozen;
  // Unfreezing: demand deferred during the freeze must re-qualify through
  // the usual spacing, not land as a burst of simultaneous adds farm-wide.
  if (!frozen) last_add_ = now;
}

void QualityAdapter::exit_degraded(TimePoint now) {
  if (!degraded_) return;
  degraded_ = false;
  // Hold the add gate down for a full spacing interval: the rate estimate
  // right after a starvation episode is stale, and re-adds must be earned
  // one at a time.
  last_add_ = now;
  plan_valid_ = false;
}

int QualityAdapter::on_send_opportunity(TimePoint now, double rate,
                                        double slope, double packet_bytes) {
  QA_CHECK_MSG(begun_, "call begin() before streaming");
  last_packet_bytes_ = packet_bytes;
  receiver_.advance(now);
  update_rate_avg(now, rate, slope);
  const AimdModel m = model_for(smoothed_slope(slope));

  if (degraded_) {
    // Base-layer-only mode: every slot feeds the base layer; no adds, no
    // plan, nothing to distribute.
    receiver_.credit(0, packet_bytes);
    audit_distribution(packet_bytes);
    trace_allocation(now, 0);
    return 0;
  }

  apply_drops(now, rate, m);

  int na = receiver_.active_layers();
  const double consumption = static_cast<double>(na) * m.consumption_rate;

  if (rate >= consumption) {
    rate_ref_ = rate;  // the reference the next draining walks back from

    // Coarse-grain add check (§2.1/§3.1) — only meaningful while filling.
    // Condition 1 stays on the instantaneous rate (the new layer must be
    // playable right now); the buffer targets use the conservative rate.
    const bool add_spacing_ok =
        !adds_frozen_ && now - last_add_ >= cfg_.min_add_spacing;
    if (cfg_.allocation == AllocationPolicy::kOptimal) {
      if (add_spacing_ok &&
          rate >= static_cast<double>(na + 1) * m.consumption_rate &&
          should_add_layer(receiver_.buffers(), na,
                           std::max(target_rate(rate),
                                    static_cast<double>(na + 1) *
                                        m.consumption_rate),
                           m,
                           AddDropConfig{cfg_.kmax, cfg_.max_layers})) {
        receiver_.add_layer(now);
        last_add_ = now;
        metrics_.record_add({now, receiver_.active_layers()});
        metrics_.record_layer_count(now, receiver_.active_layers());
        on_add_.emit(metrics_.adds().back());
        na = receiver_.active_layers();
        plan_valid_ = false;
      }
    } else {
      // Baselines use the paper's coarse-grain add gate with total-buffer
      // smoothing so the ablation isolates the distribution mechanism.
      const double target = total_buf_required(Scenario::kClustered,
                                               cfg_.kmax, rate, na, m);
      if (add_spacing_ok && na < cfg_.max_layers &&
          rate >= static_cast<double>(na + 1) * m.consumption_rate &&
          receiver_.total_buffer() >= target) {
        receiver_.add_layer(now);
        last_add_ = now;
        metrics_.record_add({now, receiver_.active_layers()});
        metrics_.record_layer_count(now, receiver_.active_layers());
        on_add_.emit(metrics_.adds().back());
        na = receiver_.active_layers();
        plan_valid_ = false;
      }
    }
  }

  // Unified periodic allocation (§4.2 generalized): each layer's network
  // entitlement this period is C*dt minus the planned drain from its buffer
  // (the drain is zero whenever the rate covers consumption). The packet
  // goes to the largest remaining entitlement; once the period's
  // entitlements are paid, surplus packets chase the §4.1 buffer targets.
  const int layer = pick_drain_layer(now, rate, m, packet_bytes);

  if (layer == kPaddingSlot) {
    trace_allocation(now, kPaddingSlot);
    return kPaddingSlot;
  }
  receiver_.credit(layer, packet_bytes);
  audit_distribution(packet_bytes);
  trace_allocation(now, layer);
  return layer;
}

void QualityAdapter::trace_allocation(TimePoint now, int layer) {
  if (!on_allocation_.active()) return;  // hot path: skip construction
  on_allocation_.emit(AllocationDecision{now, layer, plan_valid_,
                                         receiver_.total_buffer()});
}

bool QualityAdapter::efficiently_distributed(
    const std::vector<double>& layer_buf, double slack_bytes) {
  for (size_t i = 1; i < layer_buf.size(); ++i) {
    if (layer_buf[i] > layer_buf[i - 1] + slack_bytes) return false;
  }
  return true;
}

void QualityAdapter::audit_distribution(double packet_bytes) const {
#ifndef QA_NDEBUG_INVARIANTS
  // Only the paper's allocation promises efficiency; the §2.3 strawmen
  // (equal share, base-only) exist to violate it.
  if (cfg_.allocation != AllocationPolicy::kOptimal) return;
  // Transient tolerance: a few packets of assignment granularity plus one
  // planning period of consumption (a just-planned drain is applied to a
  // lower layer's mirror before its entitlement packets arrive).
  const double slack =
      8.0 * packet_bytes +
      4.0 * cfg_.consumption_rate * cfg_.drain_period.sec();
  QA_INVARIANT_MSG(efficiently_distributed(receiver_.buffers(), slack),
                   "inter-layer distribution no longer efficient (a layer "
                   "leads the one below it by more than "
                       << slack << " bytes)");
#else
  (void)packet_bytes;
#endif
}

void QualityAdapter::on_packet_lost(TimePoint now, int layer, double bytes) {
  receiver_.advance(now);
  receiver_.debit_loss(layer, bytes);
}

void QualityAdapter::on_retransmit(TimePoint now, int layer, double bytes) {
  receiver_.advance(now);
  if (layer < receiver_.active_layers()) receiver_.credit(layer, bytes);
}

void QualityAdapter::on_backoff(TimePoint now, double rate_post,
                                double slope) {
  QA_CHECK_MSG(begun_, "call begin() before streaming");
  receiver_.advance(now);
  const AimdModel m = model_for(slope);
  // The sequence walked backwards during this draining phase was built
  // while filling at (about) twice the post-backoff rate.
  rate_ref_ = std::max(rate_ref_, rate_post * 2.0);
  apply_drops(now, rate_post, m);
  plan_valid_ = false;  // re-plan against the new rate
}

}  // namespace qa::core
