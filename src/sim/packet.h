// Packet type shared by every protocol in the simulator.
//
// One concrete struct rather than a class hierarchy: packets cross module
// boundaries by value (queued, delayed, copied into traces) and a small POD
// keeps that cheap and copy-safe. Protocol-specific fields live in a
// flat section; unused fields stay zero.
#pragma once

#include <cstdint>
#include <string>

#include "util/time.h"

namespace qa::sim {

using NodeId = int32_t;
using FlowId = int32_t;

// Wire size of every acknowledgment, RAP's and TCP's alike (bytes).
inline constexpr int32_t kAckBytes = 40;

enum class PacketType : uint8_t {
  kData = 0,   // payload-bearing packet (RAP data, TCP segment, CBR)
  kAck = 1,    // acknowledgment
};

struct Packet {
  // Addressing: the simulator routes on dst node; flow_id demultiplexes to
  // the agent within the node.
  NodeId src = -1;
  NodeId dst = -1;
  FlowId flow_id = -1;
  PacketType type = PacketType::kData;

  // Wire size in bytes, including headers; drives queueing/serialization.
  int32_t size_bytes = 0;

  // Transport sequence number (per flow, data and ACK spaces separate).
  int64_t seq = -1;
  // For ACKs: cumulative ACK (TCP) or echoed data seq (RAP).
  int64_t ack_seq = -1;

  // RAP/video payload tagging: which encoding layer this packet carries and
  // its per-layer sequence number; -1 when not video.
  int16_t layer = -1;
  int64_t layer_seq = -1;

  // Timestamp echo for RTT sampling: senders stamp, receivers echo.
  TimePoint ts_sent;
  TimePoint ts_echo;

  // Journey-tracing id stamped by the source (util/journey.h); 0 means
  // untraced, and every record site skips the packet.
  uint64_t journey_id = 0;

  std::string summary() const;
};

}  // namespace qa::sim
