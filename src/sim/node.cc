#include "sim/node.h"

#include "sim/link.h"
#include "util/logging.h"

namespace qa::sim {

void Node::add_route(NodeId dst, Link* link) {
  QA_CHECK(link != nullptr);
  QA_CHECK_GE(dst, 0);
  const auto slot = static_cast<size_t>(dst);
  if (slot >= routes_.size()) routes_.resize(slot + 1, nullptr);
  routes_[slot] = link;
}

void Node::attach_agent(FlowId flow_id, Agent* agent) {
  QA_CHECK(agent != nullptr);
  QA_CHECK_MSG(agents_.count(flow_id) == 0,
               "flow " << flow_id << " already attached to node " << name_);
  agents_[flow_id] = agent;
}

void Node::send(const Packet& p) {
  if (p.dst == id_) {
    deliver(p);
    return;
  }
  const auto slot = static_cast<size_t>(p.dst);  // a negative id wraps high
  Link* const link = slot < routes_.size() ? routes_[slot] : nullptr;
  QA_CHECK_MSG(link != nullptr,
               "no route from " << name_ << " to node " << p.dst);
  ++forwarded_;
  link->submit(p);
}

void Node::deliver(const Packet& p) {
  if (p.dst != id_) {
    send(p);  // transit node: keep forwarding
    return;
  }
  auto it = agents_.find(p.flow_id);
  if (it == agents_.end()) {
    QA_LOG(Warn) << "node " << name_ << ": no agent for flow " << p.flow_id
                 << ", dropping " << p.summary();
    return;
  }
  ++delivered_local_;
  it->second->on_packet(p);
}

}  // namespace qa::sim
