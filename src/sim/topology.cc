#include "sim/topology.h"

#include <string>
#include <vector>

#include "util/logging.h"

namespace qa::sim {

Dumbbell build_dumbbell(Network& net, const DumbbellParams& params) {
  QA_CHECK(params.pairs >= 1);
  QA_CHECK(params.rtt > TimeDelta::zero());

  Dumbbell d;
  d.router_left = net.add_node("RL");
  d.router_right = net.add_node("RR");

  // Split the two-way propagation budget: the bottleneck carries most of the
  // delay, the four access hops share a small fixed slice (10% total).
  const TimeDelta one_way = params.rtt / 2;
  const TimeDelta access_delay = TimeDelta::from_sec(one_way.sec() * 0.05);
  const TimeDelta bneck_delay = one_way - access_delay * 2;

  int64_t queue_bytes = params.bottleneck_queue_bytes;
  if (queue_bytes == 0) {
    // Default: one bandwidth-delay product, the conventional drop-tail
    // provisioning rule. At 8 Mb/s and 40 ms RTT this is 40 kB.
    queue_bytes =
        static_cast<int64_t>(params.bottleneck_bw.bytes_in(params.rtt));
    queue_bytes = std::max<int64_t>(queue_bytes, 4000);
  }

  const auto make_bottleneck_queue = [&](uint64_t seed) -> std::unique_ptr<PacketQueue> {
    if (!params.red) return std::make_unique<DropTailQueue>(queue_bytes);
    // Thresholds in packets, scaled to the byte capacity assuming ~1/4 of
    // the queue per the classic min=q/4, max=3q/4 rule of thumb.
    RedQueue::Params red;
    const double cap_pkts =
        std::max(8.0, static_cast<double>(queue_bytes) / 500.0);
    red.capacity_packets = static_cast<size_t>(cap_pkts);
    red.min_thresh_pkts = cap_pkts / 4;
    red.max_thresh_pkts = 3 * cap_pkts / 4;
    return std::make_unique<RedQueue>(red, seed);
  };
  d.bottleneck =
      net.add_link(d.router_left, d.router_right, params.bottleneck_bw,
                   bneck_delay, make_bottleneck_queue(params.red_seed));
  d.bottleneck_reverse =
      net.add_link(d.router_right, d.router_left, params.bottleneck_bw,
                   bneck_delay, make_bottleneck_queue(params.red_seed + 1));

  constexpr double kAccessBwMultiple = 20.0;  // access speed vs bottleneck
  constexpr int64_t kAccessQueueBytes = 1 << 20;
  const Rate access_bw = params.bottleneck_bw * kAccessBwMultiple;
  std::vector<Link*> left_up, right_up;
  for (int i = 0; i < params.pairs; ++i) {
    Node* l = net.add_node(std::string("L").append(std::to_string(i)));
    Node* r = net.add_node(std::string("R").append(std::to_string(i)));
    d.left.push_back(l);
    d.right.push_back(r);

    left_up.push_back(
        net.add_link(l, d.router_left, access_bw, access_delay,
                     std::make_unique<DropTailQueue>(kAccessQueueBytes)));
    net.add_link(d.router_left, l, access_bw, access_delay,
                 std::make_unique<DropTailQueue>(kAccessQueueBytes));
    right_up.push_back(
        net.add_link(r, d.router_right, access_bw, access_delay,
                     std::make_unique<DropTailQueue>(kAccessQueueBytes)));
    net.add_link(d.router_right, r, access_bw, access_delay,
                 std::make_unique<DropTailQueue>(kAccessQueueBytes));
  }

  // Static routes beyond the direct neighbours installed by add_link:
  // hosts reach the far side through their router; routers cross the
  // bottleneck for far-side destinations.
  for (int i = 0; i < params.pairs; ++i) {
    for (int j = 0; j < params.pairs; ++j) {
      d.left[i]->add_route(d.right[j]->id(), left_up[i]);
      d.right[j]->add_route(d.left[i]->id(), right_up[j]);
      d.router_left->add_route(d.right[j]->id(), d.bottleneck);
      d.router_right->add_route(d.left[i]->id(), d.bottleneck_reverse);
    }
  }
  return d;
}

FarmTopo build_farm(Network& net, const FarmTopoParams& params) {
  QA_CHECK(params.slots >= 1);
  QA_CHECK(params.rtt > TimeDelta::zero());

  FarmTopo f;
  const size_t slots = static_cast<size_t>(params.slots);
  // 2 routers + 2 hosts per slot; 2 bottleneck links + 4 access links per
  // slot; agents arrive later (2 per session), reserved generously.
  net.reserve(2 + slots * 2, 2 + slots * 4, slots * 4);
  f.servers.reserve(slots);
  f.clients.reserve(slots);
  f.access_class.reserve(slots);
  f.access_bw.reserve(slots);

  f.router_left = net.add_node("RL");
  f.router_right = net.add_node("RR");

  const TimeDelta one_way = params.rtt / 2;
  const TimeDelta access_delay = TimeDelta::from_sec(one_way.sec() * 0.05);
  const TimeDelta bneck_delay = one_way - access_delay * 2;

  int64_t queue_bytes = params.bottleneck_queue_bytes;
  if (queue_bytes == 0) {
    queue_bytes =
        static_cast<int64_t>(params.bottleneck_bw.bytes_in(params.rtt));
    queue_bytes = std::max<int64_t>(queue_bytes, 4000);
  }
  f.bottleneck_queue_bytes = queue_bytes;

  f.bottleneck =
      net.add_link(f.router_left, f.router_right, params.bottleneck_bw,
                   bneck_delay, std::make_unique<DropTailQueue>(queue_bytes));
  f.bottleneck_reverse =
      net.add_link(f.router_right, f.router_left, params.bottleneck_bw,
                   bneck_delay, std::make_unique<DropTailQueue>(queue_bytes));

  constexpr int64_t kAccessQueueBytes = 1 << 18;
  const Rate fair_share = params.bottleneck_bw / static_cast<double>(params.slots);
  for (int i = 0; i < params.slots; ++i) {
    const int cls = i % static_cast<int>(kAccessClasses.size());
    const AccessClass& ac = kAccessClasses[static_cast<size_t>(cls)];
    const Rate access_bw = fair_share * ac.bw_multiple;
    const TimeDelta hop_delay = access_delay + ac.extra_delay;

    Node* s = net.add_node(std::string("S").append(std::to_string(i)));
    Node* c = net.add_node(std::string("C").append(std::to_string(i)));
    f.servers.push_back(s);
    f.clients.push_back(c);
    f.access_class.push_back(cls);
    f.access_bw.push_back(access_bw);

    Link* s_up = net.add_link(
        s, f.router_left, access_bw, hop_delay,
        std::make_unique<DropTailQueue>(kAccessQueueBytes));
    net.add_link(f.router_left, s, access_bw, hop_delay,
                 std::make_unique<DropTailQueue>(kAccessQueueBytes));
    Link* c_up = net.add_link(
        c, f.router_right, access_bw, hop_delay,
        std::make_unique<DropTailQueue>(kAccessQueueBytes));
    net.add_link(f.router_right, c, access_bw, hop_delay,
                 std::make_unique<DropTailQueue>(kAccessQueueBytes));

    // Pair-local routing: server i <-> client i only.
    s->add_route(c->id(), s_up);
    c->add_route(s->id(), c_up);
    f.router_left->add_route(c->id(), f.bottleneck);
    f.router_right->add_route(s->id(), f.bottleneck_reverse);
  }
  return f;
}

}  // namespace qa::sim
