#include "app/chaos.h"

#include <algorithm>
#include <cmath>

#include "app/session.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "util/logging.h"
#include "util/rng.h"

namespace qa::app {

ChaosOutcome run_chaos_trial(const ChaosParams& params) {
  QA_CHECK(params.faults > 0);
  QA_CHECK(params.stream_layers >= 1);

  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = params.bottleneck;
  topo.rtt = params.rtt;
  topo.bottleneck_queue_bytes = params.bottleneck_queue_bytes;
  const sim::Dumbbell d = sim::build_dumbbell(net, topo);

  SessionConfig scfg;
  scfg.adapter.consumption_rate = params.layer_rate.bps();
  scfg.adapter.max_layers = params.stream_layers;
  scfg.adapter.kmax = params.kmax;
  scfg.cc.packet_size = params.packet_size;
  scfg.cc.initial_rate = params.layer_rate;
  scfg.cc.initial_rtt = params.rtt;
  Session session(net, d.left[0], d.right[0], scfg);

  // The randomized schedule: everything lands inside the fault window and
  // is cleared by its end.
  sim::FaultInjector injector(&net.scheduler());
  sim::ChaosProfile profile;
  profile.start = TimePoint::origin() + params.warmup;
  profile.window = params.fault_window;
  profile.faults = params.faults;
  Rng rng(params.seed);
  sim::inject_random_faults(injector, d.bottleneck, d.bottleneck_reverse, rng,
                            profile);

  const TimePoint fault_end = profile.start + params.fault_window;
  const TimePoint run_end = fault_end + params.tail;

  ChaosOutcome out;
  out.min_client_buffer = 0;
  int64_t packets_at_fault_end = 0;

  // Periodic observation: keeps the client's rebuffer state fresh during
  // total outages and watches for negative buffers. One self-re-arming
  // event walks the grid, so the heap holds one entry for it, not one per
  // tick.
  const TimeDelta sample_dt = TimeDelta::millis(100);
  TimePoint tick = TimePoint::origin() + sample_dt;
  if (tick <= run_end) {
    net.scheduler().schedule_at(tick, [&net, &session, &out, &tick, run_end,
                                       sample_dt] {
      session.client().sync();
      const auto& client = session.client();
      out.min_client_buffer =
          std::min({out.min_client_buffer, client.buffer(0),
                    client.total_buffer()});
      tick += sample_dt;
      if (tick <= run_end) net.scheduler().repeat_at(tick);
    }, sim::EventCategory::kProbe);
  }
  net.scheduler().schedule_at(fault_end, [&session, &packets_at_fault_end] {
    packets_at_fault_end = session.client().packets_received();
  }, sim::EventCategory::kProbe);

  net.run(run_end);
  session.client().sync();

  // --- Recovery: active layer count back at the pre-fault level. ----------
  const auto& metrics = session.server().adapter().metrics();
  const TimePoint warmup_end = profile.start;
  const TimePoint warmup_probe = TimePoint::origin() + params.warmup * 0.6;
  out.pre_fault_layers = std::max(
      1, static_cast<int>(
             std::floor(metrics.mean_quality(warmup_probe, warmup_end) +
                        1e-9)));
  const double target = static_cast<double>(out.pre_fault_layers);
  const SeriesView series = metrics.layer_series().view();
  if (series.step_value_at(fault_end, 1.0) >= target) {
    out.recovered = true;
    out.recovery_time = TimeDelta::zero();
  } else {
    for (size_t i = 0; i < series.size(); ++i) {
      if (series.times[i] < fault_end || series.values[i] < target) continue;
      out.recovery_time = series.times[i] - fault_end;
      out.recovered = out.recovery_time <= params.recovery_bound;
      break;
    }
  }

  // --- Bookkeeping. --------------------------------------------------------
  const auto& rebuf = session.client().rebuffers();
  out.rebuffer_events = rebuf.count();
  out.rebuffer_time = rebuf.total_paused(net.scheduler().now());
  out.rebuffer_max_recovery = rebuf.max_time_to_recover();
  out.quiescence_entries = session.controller().quiescence_entries();
  out.degraded_entries = session.server().adapter().degraded_entries();
  out.losses = session.controller().losses_detected();
  out.backoffs = session.controller().backoffs();
  out.outage_drops =
      d.bottleneck->outage_drops() + d.bottleneck_reverse->outage_drops();
  out.packets_received = session.client().packets_received();
  out.packets_received_tail = out.packets_received - packets_at_fault_end;
  out.final_rate_bps = session.controller().rate().bps();
  return out;
}

}  // namespace qa::app
