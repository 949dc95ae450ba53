#include "core/receiver_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace qa::core {

namespace {
// Checked before the member initializers size anything by it: a negative
// count would otherwise reach std::vector as a huge size_t.
size_t layer_count(int max_layers) {
  QA_CHECK(max_layers >= 1);
  return static_cast<size_t>(max_layers);
}
}  // namespace

ReceiverModel::ReceiverModel(double consumption_rate, int max_layers)
    : consumption_rate_(consumption_rate), layers_(layer_count(max_layers)) {
  QA_CHECK(consumption_rate_ > 0);
  buf_.reserve(layers_.size());
}

void ReceiverModel::advance(TimePoint now) {
  QA_CHECK_MSG(now >= clock_, "negative drain: advancing to " << now
                                                              << " behind "
                                                              << clock_);
  if (now == clock_) return;
  // Conservation ledger for the audit below: over one drain step, bytes
  // buffered before must equal bytes buffered after plus bytes consumed
  // (played out). Underflow shortfall is playout that never happened, so
  // it is *not* part of `consumed`.
  const double total_before = total_buffer();
  double consumed = 0;
  for (int i = 0; i < active_; ++i) {
    Layer& l = layers_[static_cast<size_t>(i)];
    double& buf = buf_[static_cast<size_t>(i)];
    const TimePoint consume_from =
        std::max({clock_, l.active_from, playout_start_});
    if (now <= consume_from) continue;
    const double want = consumption_rate_ * (now - consume_from).sec();
    if (buf >= want) {
      buf -= want;
      consumed += want;
      l.empty_state = false;
      // Healthy interval: the starvation balance heals at C/5 so isolated
      // jitter decays while a persistent >=20% shortfall keeps growing.
      l.missed = std::max(0.0, l.missed - 0.2 * want);
    } else {
      // Ran dry part-way through the interval: consume what is there and
      // record the underflow. (Data arriving during the dry spell was
      // credited before advance() and so is already reflected in buf; the
      // residual `want - buf` is playout the client could not perform.)
      const double missing = want - buf;
      consumed += buf;
      buf = 0;
      l.missed += missing;
      if (!l.empty_state) {
        l.empty_state = true;
        ++l.underflows;
        l.underflow_flag = true;
      }
      if (i == 0) {
        base_stall_ += TimeDelta::from_sec(missing / consumption_rate_);
      }
    }
    QA_INVARIANT_MSG(buf >= 0, "layer " << i << " buffer negative: " << buf);
  }
  const double total_after = total_buffer();
  QA_INVARIANT_MSG(
      std::abs(total_before - consumed - total_after) <=
          1e-6 * std::max(1.0, total_before),
      "buffered bytes not conserved across drain step: before="
          << total_before << " consumed=" << consumed
          << " after=" << total_after);
  clock_ = now;
}

int ReceiverModel::add_layer(TimePoint now) {
  QA_CHECK_MSG(active_ < static_cast<int>(layers_.size()),
               "stream has no more layers to add");
  Layer& l = layers_[static_cast<size_t>(active_)];
  l = Layer{};  // reset any state from a previous activation
  l.active = true;
  // advance() clamps consumption to playout_start_ as well, so the layer
  // start needs no clamping here (playout_start_ may legitimately move
  // while a client waits for its startup buffer target).
  l.active_from = now;
  buf_.push_back(0.0);
  return active_++;
}

double ReceiverModel::drop_top_layer(TimePoint now) {
  advance(now);
  QA_CHECK_MSG(active_ > 1, "the base layer is never dropped");
  Layer& l = layers_[static_cast<size_t>(active_ - 1)];
  const double residual = buf_.back();
  l.active = false;
  buf_.pop_back();
  --active_;
  return residual;
}

void ReceiverModel::credit(int layer, double bytes) {
  QA_CHECK(layer >= 0 && layer < active_);
  QA_CHECK_GE(bytes, 0.0);
  double& buf = buf_[static_cast<size_t>(layer)];
  buf += bytes;
  if (buf > 0) layers_[static_cast<size_t>(layer)].empty_state = false;
}

void ReceiverModel::debit_loss(int layer, double bytes) {
  QA_CHECK(layer >= 0 && layer < static_cast<int>(layers_.size()));
  QA_CHECK_GE(bytes, 0.0);
  if (layer >= active_) return;  // layer dropped since the packet was sent
  double& buf = buf_[static_cast<size_t>(layer)];
  buf = std::max(0.0, buf - bytes);
}

double ReceiverModel::buffer(int layer) const {
  QA_CHECK(layer >= 0 && layer < static_cast<int>(layers_.size()));
  return layer < active_ ? buf_[static_cast<size_t>(layer)] : 0.0;
}

double ReceiverModel::total_buffer() const {
  double sum = 0;
  for (double b : buf_) sum += b;
  return sum;
}

int64_t ReceiverModel::underflow_events(int layer) const {
  QA_CHECK(layer >= 0 && layer < static_cast<int>(layers_.size()));
  return layers_[static_cast<size_t>(layer)].underflows;
}

int64_t ReceiverModel::total_underflow_events() const {
  int64_t sum = 0;
  for (const Layer& l : layers_) sum += l.underflows;
  return sum;
}

int ReceiverModel::take_starving(double threshold_bytes) {
  int starving = 0;
  for (int i = 0; i < active_; ++i) {
    Layer& l = layers_[static_cast<size_t>(i)];
    if (l.missed >= threshold_bytes) {
      l.missed = 0;
      ++starving;
    }
  }
  return starving;
}

std::vector<int> ReceiverModel::take_underflows() {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(layers_.size()); ++i) {
    Layer& l = layers_[static_cast<size_t>(i)];
    if (l.underflow_flag) {
      l.underflow_flag = false;
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace qa::core
