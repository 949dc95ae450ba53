// AckSink: the receiver every congestion-control backend pairs with. It
// acknowledges every data packet (echoing its send time for the sender's
// RTT sample) and hands the payload to an optional consumer (the video
// client).
#pragma once

#include <functional>

#include "sim/flow.h"
#include "sim/node.h"
#include "sim/scheduler.h"
#include "util/journey.h"

namespace qa::cc {

class AckSink : public sim::Agent {
 public:
  AckSink(sim::Scheduler* sched, sim::Node* local);

  void on_packet(const sim::Packet& p) override;

  // Consumer sees every received data packet (in arrival order).
  void set_consumer(std::function<void(const sim::Packet&)> consumer) {
    consumer_ = std::move(consumer);
  }

  // Attaches journey tracing: arrival of a traced data packet records its
  // delivery. Nullptr detaches.
  void set_journey_recorder(JourneyRecorder* recorder) {
    journeys_ = recorder;
  }

  int64_t packets_received() const { return received_; }
  int64_t bytes_received() const { return bytes_; }
  int64_t highest_seq() const { return highest_seq_; }

 private:
  sim::Scheduler* sched_;
  sim::Node* local_;
  std::function<void(const sim::Packet&)> consumer_;
  JourneyRecorder* journeys_ = nullptr;
  int64_t received_ = 0;
  int64_t bytes_ = 0;
  int64_t highest_seq_ = -1;
};

}  // namespace qa::cc
