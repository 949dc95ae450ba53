#include "sim/queue.h"

#include <cmath>

#include "util/logging.h"

namespace qa::sim {

DropTailQueue::DropTailQueue(int64_t capacity_bytes, size_t capacity_packets)
    : capacity_bytes_(capacity_bytes), capacity_packets_(capacity_packets) {
  QA_CHECK(capacity_bytes_ > 0);
}

bool DropTailQueue::enqueue(const Packet& p) {
  QA_CHECK_GT(p.size_bytes, 0);
  const bool over_bytes = bytes_ + p.size_bytes > capacity_bytes_;
  const bool over_pkts = capacity_packets_ > 0 && q_.size() >= capacity_packets_;
  if (over_bytes || over_pkts) {
    count_drop();
    return false;
  }
  q_.push_back(p);
  bytes_ += p.size_bytes;
  count_enqueue();
  QA_INVARIANT_MSG(bytes_ <= capacity_bytes_,
                   "occupancy " << bytes_ << " exceeds capacity "
                                << capacity_bytes_);
  audit_accounting(q_.size(), bytes_);
  return true;
}

Packet DropTailQueue::dequeue() {
  QA_CHECK(!q_.empty());
  Packet p = q_.front();
  q_.pop_front();
  bytes_ -= p.size_bytes;
  count_dequeue();
  audit_accounting(q_.size(), bytes_);
  return p;
}

RedQueue::RedQueue(Params params, uint64_t seed)
    : params_(params), rng_(seed) {
  QA_CHECK(params_.min_thresh_pkts < params_.max_thresh_pkts);
  QA_CHECK(params_.max_p > 0 && params_.max_p <= 1.0);
}

bool RedQueue::enqueue(const Packet& p) {
  QA_CHECK_GT(p.size_bytes, 0);
  // EWMA of instantaneous queue length in packets.
  avg_ = (1.0 - params_.weight) * avg_ +
         params_.weight * static_cast<double>(q_.size());

  bool drop = false;
  if (q_.size() >= params_.capacity_packets) {
    drop = true;  // forced (tail) drop
  } else if (avg_ >= params_.max_thresh_pkts) {
    drop = true;
  } else if (avg_ > params_.min_thresh_pkts) {
    const double pb = params_.max_p * (avg_ - params_.min_thresh_pkts) /
                      (params_.max_thresh_pkts - params_.min_thresh_pkts);
    // Spacing correction: probability grows with packets since last drop.
    ++count_since_drop_;
    const double denom = 1.0 - static_cast<double>(count_since_drop_) * pb;
    const double pa = denom > 0 ? pb / denom : 1.0;
    drop = rng_.bernoulli(pa);
  } else {
    count_since_drop_ = -1;
  }

  if (drop) {
    count_since_drop_ = 0;
    count_drop();
    return false;
  }
  q_.push_back(p);
  bytes_ += p.size_bytes;
  count_enqueue();
  audit_accounting(q_.size(), bytes_);
  return true;
}

Packet RedQueue::dequeue() {
  QA_CHECK(!q_.empty());
  Packet p = q_.front();
  q_.pop_front();
  bytes_ -= p.size_bytes;
  count_dequeue();
  audit_accounting(q_.size(), bytes_);
  return p;
}

}  // namespace qa::sim
