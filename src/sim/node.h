// Node: attachment point for agents plus a static route table.
//
// Routing is destination-based and static: the topology builder installs a
// next-hop link per destination node. NodeIds are dense (Network::add_node
// hands them out from 0), so the route table is a vector indexed by the
// destination id: one bounds check and one load per forwarded packet.
// Packets whose destination is this node are dispatched to the agent
// registered under the packet's flow id.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flow.h"
#include "sim/packet.h"

namespace qa::sim {

class Link;

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  // Installs/overwrites the next-hop link toward `dst`.
  void add_route(NodeId dst, Link* link);

  // Registers `agent` to receive packets with `flow_id` addressed here.
  // The node does not own agents.
  void attach_agent(FlowId flow_id, Agent* agent);

  // Origin of a packet from a local agent, or a forwarding step: looks up
  // the route toward p.dst and submits to that link. Packets addressed to
  // this node are delivered directly (loopback).
  void send(const Packet& p);

  // Called by links when a packet arrives over the wire.
  void deliver(const Packet& p);

  int64_t packets_forwarded() const { return forwarded_; }
  int64_t packets_delivered_local() const { return delivered_local_; }

 private:
  NodeId id_;
  std::string name_;
  std::vector<Link*> routes_;  // by destination NodeId; nullptr = none
  std::unordered_map<FlowId, Agent*> agents_;
  int64_t forwarded_ = 0;
  int64_t delivered_local_ = 0;
};

}  // namespace qa::sim
