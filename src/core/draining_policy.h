// Draining-phase bandwidth allocation (§4.2).
//
// While the transmission rate is below the total consumption rate the
// receiver must cover the deficit from its buffers. The paper drains by
// walking the ordered optimal-state sequence *backwards*: over a short
// planning period the expected deficit is computed from the current rate
// and slope estimate, then buffers are drained from the highest layer
// downwards such that no layer drops below its share in the previous
// optimal state still coverable — regressing state by state until the
// period's deficit is covered. A layer can never drain faster than its
// consumption rate C. Whatever a layer does not drain it must receive
// from the network, so the plan also yields per-layer send quotas whose
// sum matches the expected network delivery for the period.
#pragma once

#include <vector>

#include "core/buffer_math.h"
#include "core/filling_policy.h"
#include "core/state_sequence.h"

namespace qa::core {

struct DrainPlan {
  // Bytes to draw from each layer's buffer during the period.
  std::vector<double> drain_bytes;
  // Bytes each layer must receive from the network during the period
  // (consumption minus drain, floored at zero).
  std::vector<double> send_bytes;
  // Deficit the plan expected to cover.
  double planned_deficit = 0;
  // Deficit the buffers could not cover (a critical situation: the caller
  // should drop layers when this is materially positive).
  double shortfall = 0;
};

// Computes the drain/send quotas for one planning period of `period_sec`
// seconds. `rate` is the current (post-backoff) transmission rate,
// `rate_ref` the pre-backoff rate used to build the state sequence being
// walked backwards. `monotone` selects the fig-10 adjusted targets.
// `min_drainable` excludes layers holding no real stock (a few packets of
// arrival jitter) from draining: skimming them merely shorts their network
// feed by the same amount and starves them at packet granularity.
DrainPlan plan_drain_period(const std::vector<double>& layer_buf,
                            int active_layers, double rate, double rate_ref,
                            const AimdModel& model, int kmax,
                            double period_sec, bool monotone = true,
                            AllocationPolicy policy = AllocationPolicy::kOptimal,
                            double min_drainable = 0.0);

// The same plan written into `plan`, with `seq` as the state sequence's
// storage. Both are reused: once their vectors have grown to active_layers
// (and `seq` to 2*kmax states), a call allocates nothing.
void plan_drain_period(DrainPlan& plan, StateSequence& seq,
                       const std::vector<double>& layer_buf,
                       int active_layers, double rate, double rate_ref,
                       const AimdModel& model, int kmax, double period_sec,
                       bool monotone, AllocationPolicy policy,
                       double min_drainable);

}  // namespace qa::core
