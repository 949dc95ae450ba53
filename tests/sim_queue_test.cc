#include "sim/queue.h"

#include <gtest/gtest.h>

namespace qa::sim {
namespace {

Packet make_packet(int32_t size, int64_t seq = 0) {
  Packet p;
  p.size_bytes = size;
  p.seq = seq;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10'000);
  q.enqueue(make_packet(100, 1));
  q.enqueue(make_packet(100, 2));
  q.enqueue(make_packet(100, 3));
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(q.bytes(), 300);
  EXPECT_EQ(q.dequeue().seq, 1);
  EXPECT_EQ(q.dequeue().seq, 2);
  EXPECT_EQ(q.dequeue().seq, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
}

TEST(DropTailQueue, ByteCapacityDropsArrivals) {
  DropTailQueue q(250);
  EXPECT_TRUE(q.enqueue(make_packet(100, 1)));
  EXPECT_TRUE(q.enqueue(make_packet(100, 2)));
  EXPECT_FALSE(q.enqueue(make_packet(100, 3)));  // would exceed 250
  EXPECT_EQ(q.total_drops(), 1);
  EXPECT_EQ(q.packets(), 2u);
  // Head unaffected by the drop (tail-drop).
  EXPECT_EQ(q.dequeue().seq, 1);
}

TEST(DropTailQueue, PacketCapacity) {
  DropTailQueue q(1'000'000, 2);
  EXPECT_TRUE(q.enqueue(make_packet(10, 1)));
  EXPECT_TRUE(q.enqueue(make_packet(10, 2)));
  EXPECT_FALSE(q.enqueue(make_packet(10, 3)));
  EXPECT_EQ(q.total_drops(), 1);
}

TEST(DropTailQueue, CapacityFreedByDequeue) {
  DropTailQueue q(200);
  q.enqueue(make_packet(100, 1));
  q.enqueue(make_packet(100, 2));
  EXPECT_FALSE(q.enqueue(make_packet(100, 3)));
  q.dequeue();
  EXPECT_TRUE(q.enqueue(make_packet(100, 4)));
}

TEST(DropTailQueue, TotalDropsCountsTheRejectedPacket) {
  DropTailQueue q(100);
  EXPECT_TRUE(q.enqueue(make_packet(100, 1)));
  EXPECT_FALSE(q.enqueue(make_packet(100, 42)));
  EXPECT_EQ(q.total_drops(), 1);
  EXPECT_EQ(q.total_enqueued(), 1);
  EXPECT_EQ(q.dequeue().seq, 1);
}

TEST(DropTailQueue, CountsEnqueues) {
  DropTailQueue q(1000);
  for (int i = 0; i < 5; ++i) q.enqueue(make_packet(100, i));
  EXPECT_EQ(q.total_enqueued(), 5);
}

TEST(RedQueue, NoDropsBelowMinThreshold) {
  RedQueue::Params params;
  params.min_thresh_pkts = 5;
  params.max_thresh_pkts = 15;
  params.capacity_packets = 64;
  RedQueue q(params, 1);
  // Keep instantaneous queue at <= 2 packets: never any drop.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(100)));
    q.dequeue();
  }
  EXPECT_EQ(q.total_drops(), 0);
}

TEST(RedQueue, RandomDropsUnderSustainedLoad) {
  RedQueue::Params params;
  params.min_thresh_pkts = 2;
  params.max_thresh_pkts = 8;
  params.max_p = 0.2;
  params.weight = 0.2;  // fast EWMA so the test converges quickly
  params.capacity_packets = 16;
  RedQueue q(params, 2);
  int dropped = 0;
  // Sustained overload: enqueue 3, dequeue 1.
  for (int i = 0; i < 3000; ++i) {
    if (!q.enqueue(make_packet(100))) ++dropped;
    if (i % 3 == 0 && !q.empty()) q.dequeue();
  }
  EXPECT_GT(dropped, 100);          // early drops kicked in
  EXPECT_EQ(q.total_drops(), dropped);
  EXPECT_LE(q.packets(), params.capacity_packets);
  EXPECT_GT(q.average_queue(), params.min_thresh_pkts);
}

TEST(RedQueue, ForcedDropAtCapacity) {
  RedQueue::Params params;
  params.min_thresh_pkts = 100;  // early drop effectively off
  params.max_thresh_pkts = 200;
  params.capacity_packets = 4;
  RedQueue q(params, 3);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(make_packet(10)));
  EXPECT_FALSE(q.enqueue(make_packet(10)));
}

TEST(RedQueue, FifoAndByteAccounting) {
  RedQueue::Params params;
  RedQueue q(params, 4);
  q.enqueue(make_packet(100, 7));
  q.enqueue(make_packet(50, 8));
  EXPECT_EQ(q.bytes(), 150);
  EXPECT_EQ(q.dequeue().seq, 7);
  EXPECT_EQ(q.bytes(), 50);
}

}  // namespace
}  // namespace qa::sim
