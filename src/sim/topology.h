// Topology builders.
//
// The paper's experiments all use the classic dumbbell: N sources behind
// router RL, a single bottleneck RL->RR, N sinks behind RR. Access links are
// fast enough never to be the bottleneck.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "sim/network.h"
#include "util/rng.h"

namespace qa::sim {

struct DumbbellParams {
  int pairs = 1;                      // number of host pairs (left[i] <-> right[i])
  Rate bottleneck_bw = Rate::megabits_per_sec(8);
  TimeDelta rtt = TimeDelta::millis(40);      // end-to-end two-way propagation
  int64_t bottleneck_queue_bytes = 0;         // 0 => one bandwidth-delay product
  // Random Early Detection on the bottleneck instead of drop-tail: a less
  // bursty loss process (sensitivity study; the paper uses drop-tail).
  bool red = false;
  uint64_t red_seed = 42;
};

struct Dumbbell {
  std::vector<Node*> left;    // senders
  std::vector<Node*> right;   // receivers
  Node* router_left = nullptr;
  Node* router_right = nullptr;
  Link* bottleneck = nullptr;          // left -> right direction (data path)
  Link* bottleneck_reverse = nullptr;  // right -> left (ACK path)
};

// Builds the dumbbell into `net` and installs all static routes so every
// left host can reach every right host and vice versa.
Dumbbell build_dumbbell(Network& net, const DumbbellParams& params);

// --- Server-farm fan-out. --------------------------------------------------
//
// The farm topology is a dumbbell scaled out to hundreds of slots with
// *heterogeneous* access links: each slot (server host, client host pair)
// belongs to an access class — broadband, mid-tier, or constrained-modem
// style — assigned round-robin so every class is represented at any farm
// size. Routes are pair-local (server i talks only to client i), so route
// tables stay O(1) per host instead of the dumbbell's all-pairs O(n^2).
struct AccessClass {
  double bw_multiple = 20.0;   // access speed as a multiple of one fair share
  TimeDelta extra_delay = TimeDelta::zero();  // added per access hop
};

// Access heterogeneity; slot i gets kAccessClasses[i % 3]. The multiple
// applies to bottleneck_bw / slots (the all-slots-busy fair share), so the
// constrained class genuinely caps a session's rate.
inline constexpr std::array<AccessClass, 3> kAccessClasses = {{
    {40.0, TimeDelta::zero()},
    {8.0, TimeDelta::millis(5)},
    {2.0, TimeDelta::millis(20)},
}};

struct FarmTopoParams {
  int slots = 64;
  Rate bottleneck_bw = Rate::megabits_per_sec(8);
  TimeDelta rtt = TimeDelta::millis(40);  // base end-to-end propagation
  int64_t bottleneck_queue_bytes = 0;     // 0 => one bandwidth-delay product
};

struct FarmTopo {
  std::vector<Node*> servers;       // slot i's sender host
  std::vector<Node*> clients;       // slot i's receiver host
  std::vector<int> access_class;    // slot i's class index
  std::vector<Rate> access_bw;      // slot i's access bandwidth
  Node* router_left = nullptr;
  Node* router_right = nullptr;
  Link* bottleneck = nullptr;           // data path
  Link* bottleneck_reverse = nullptr;   // ACK path
  int64_t bottleneck_queue_bytes = 0;   // resolved capacity (occupancy denom)
};

FarmTopo build_farm(Network& net, const FarmTopoParams& params);

}  // namespace qa::sim
