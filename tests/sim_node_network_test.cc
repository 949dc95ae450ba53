#include "sim/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace qa::sim {
namespace {

class Collector : public Agent {
 public:
  void on_packet(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

TEST(Node, LoopbackDelivery) {
  Node n(0, "n");
  Collector c;
  n.attach_agent(5, &c);
  Packet p;
  p.dst = 0;
  p.flow_id = 5;
  n.send(p);
  ASSERT_EQ(c.packets.size(), 1u);
  EXPECT_EQ(n.packets_delivered_local(), 1);
}

TEST(Node, UnknownFlowIsDroppedQuietly) {
  Node n(0, "n");
  Packet p;
  p.dst = 0;
  p.flow_id = 99;
  n.deliver(p);  // no agent registered: warn + drop, no crash
  EXPECT_EQ(n.packets_delivered_local(), 0);
}

TEST(Network, TwoNodeDelivery) {
  Network net;
  Node* a = net.add_node("a");
  Node* b = net.add_node("b");
  net.add_duplex_link(a, b, Rate::kilobytes_per_sec(100),
                      TimeDelta::millis(5), 1 << 20);
  auto* collector = net.adopt_agent(b, 1, std::make_unique<Collector>());

  Packet p;
  p.src = a->id();
  p.dst = b->id();
  p.flow_id = 1;
  p.size_bytes = 1000;
  a->send(p);
  net.run(TimePoint::from_sec(1));
  ASSERT_EQ(collector->packets.size(), 1u);
}

TEST(Network, MultiHopForwarding) {
  Network net;
  Node* a = net.add_node("a");
  Node* r = net.add_node("r");
  Node* b = net.add_node("b");
  auto [ar, ra] = net.add_duplex_link(a, r, Rate::kilobytes_per_sec(100),
                                      TimeDelta::millis(1), 1 << 20);
  net.add_duplex_link(r, b, Rate::kilobytes_per_sec(100),
                      TimeDelta::millis(1), 1 << 20);
  // a reaches b via r.
  a->add_route(b->id(), ar);
  auto* collector = net.adopt_agent(b, 1, std::make_unique<Collector>());

  Packet p;
  p.src = a->id();
  p.dst = b->id();
  p.flow_id = 1;
  p.size_bytes = 100;
  a->send(p);
  net.run(TimePoint::from_sec(1));
  ASSERT_EQ(collector->packets.size(), 1u);
  EXPECT_EQ(r->packets_forwarded(), 1);
}

TEST(Network, FlowIdsAreUnique) {
  Network net;
  const FlowId f1 = net.allocate_flow_id();
  const FlowId f2 = net.allocate_flow_id();
  EXPECT_NE(f1, f2);
}

class StartCounter : public Agent {
 public:
  void on_packet(const Packet&) override {}
  void start() override { ++starts; }
  int starts = 0;
};

TEST(Network, AgentsStartExactlyOnceAcrossRuns) {
  Network net;
  Node* a = net.add_node("a");
  auto* agent = net.adopt_agent(a, 1, std::make_unique<StartCounter>());
  net.run(TimePoint::from_sec(1));
  net.run(TimePoint::from_sec(2));
  EXPECT_EQ(agent->starts, 1);
}

TEST(Network, NodeIdsAreSequential) {
  Network net;
  Node* a = net.add_node("a");
  Node* b = net.add_node("b");
  EXPECT_EQ(a->id(), 0);
  EXPECT_EQ(b->id(), 1);
  EXPECT_EQ(net.nodes().size(), 2u);
}

TEST(NodeDeathTest, SendWithoutARouteFails) {
  Network net;
  Node* a = net.add_node("a");
  net.add_node("b");
  Node* c = net.add_node("c");
  net.add_duplex_link(a, c, Rate::kilobytes_per_sec(100),
                      TimeDelta::millis(1), 1 << 20);
  Packet p;
  p.src = a->id();
  p.flow_id = 1;
  p.dst = 1;  // b: a known node that a has no route to
  EXPECT_DEATH(a->send(p), "no route from a to node 1");
  p.dst = 7;  // beyond every node
  EXPECT_DEATH(a->send(p), "no route from a to node 7");
  p.dst = -1;
  EXPECT_DEATH(a->send(p), "no route from a to node -1");
}

}  // namespace
}  // namespace qa::sim
