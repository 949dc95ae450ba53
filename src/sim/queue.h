// Bounded packet queues for link buffers.
//
// DropTailQueue is the paper's setting (FIFO, drop arriving packet when
// full). RedQueue implements Random Early Detection as an extension so the
// loss process can be made less bursty in sensitivity experiments.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "sim/packet.h"
#include "util/check.h"
#include "util/rng.h"

namespace qa::sim {

class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  // Attempts to enqueue; returns false (and counts the drop) when the
  // packet was discarded. Link::on_queue_drop() reports which packet.
  virtual bool enqueue(const Packet& p) = 0;
  // Removes and returns the head. Precondition: !empty().
  virtual Packet dequeue() = 0;

  virtual bool empty() const = 0;
  virtual size_t packets() const = 0;
  virtual int64_t bytes() const = 0;

  int64_t total_drops() const { return drops_; }
  int64_t total_enqueued() const { return enqueued_; }
  int64_t total_dequeued() const { return dequeued_; }

 protected:
  void count_drop() { ++drops_; }
  void count_enqueue() { ++enqueued_; }
  void count_dequeue() { ++dequeued_; }

  // Byte-conservation audit, run after every mutation: occupancy must be
  // non-negative, agree with emptiness, and every packet ever offered must
  // be accounted for as queued, dequeued, or dropped.
  void audit_accounting(size_t packets_now, int64_t bytes_now) const {
    QA_INVARIANT_MSG(bytes_now >= 0, "queue byte balance went negative");
    QA_INVARIANT_MSG((packets_now == 0) == (bytes_now == 0),
                     "packets=" << packets_now << " bytes=" << bytes_now);
    QA_INVARIANT_MSG(
        enqueued_ == dequeued_ + static_cast<int64_t>(packets_now),
        "enqueued=" << enqueued_ << " dequeued=" << dequeued_
                    << " resident=" << packets_now);
  }

 private:
  int64_t drops_ = 0;
  int64_t enqueued_ = 0;
  int64_t dequeued_ = 0;
};

// FIFO with a byte-capacity limit (packet limit optional, 0 = unlimited).
class DropTailQueue : public PacketQueue {
 public:
  explicit DropTailQueue(int64_t capacity_bytes, size_t capacity_packets = 0);

  bool enqueue(const Packet& p) override;
  Packet dequeue() override;
  bool empty() const override { return q_.empty(); }
  size_t packets() const override { return q_.size(); }
  int64_t bytes() const override { return bytes_; }

 private:
  int64_t capacity_bytes_;
  size_t capacity_packets_;
  int64_t bytes_ = 0;
  std::deque<Packet> q_;
};

// Random Early Detection (Floyd & Jacobson 1993), gentle-less classic
// variant with EWMA average queue in packets.
class RedQueue : public PacketQueue {
 public:
  struct Params {
    double min_thresh_pkts = 5;
    double max_thresh_pkts = 15;
    double max_p = 0.1;       // drop probability at max threshold
    double weight = 0.002;    // EWMA weight w_q
    size_t capacity_packets = 64;
  };

  // `seed` follows the repo-wide plumbing contract (uint64 seed, never an
  // Rng by value): the queue owns its generator so RED drop decisions are a
  // pure function of (params, seed, arrival sequence).
  RedQueue(Params params, uint64_t seed);

  bool enqueue(const Packet& p) override;
  Packet dequeue() override;
  bool empty() const override { return q_.empty(); }
  size_t packets() const override { return q_.size(); }
  int64_t bytes() const override { return bytes_; }

  double average_queue() const { return avg_; }

 private:
  Params params_;
  Rng rng_;
  double avg_ = 0;
  int64_t count_since_drop_ = -1;
  int64_t bytes_ = 0;
  std::deque<Packet> q_;
};

}  // namespace qa::sim
