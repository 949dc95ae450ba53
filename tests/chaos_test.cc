// Seeded chaos harness: randomized fault schedules against one
// quality-adaptive session, across many seeds. Every run must hold the
// invariant audits (QA_INVARIANT aborts the test on violation), keep client
// buffers non-negative, keep packets flowing after the faults clear (no
// wedge or deadlock), and recover to the pre-fault layer count within the
// bound. A deterministic outage test pins the client's rebuffer semantics.
#include "app/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "app/session.h"
#include "sim/fault.h"
#include "sim/topology.h"

namespace qa::app {
namespace {

class ChaosSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweep, SurvivesAndRecovers) {
  ChaosParams params;
  params.seed = GetParam();
  const ChaosOutcome out = run_chaos_trial(params);

  // The clean warmup must have reached the full stack — otherwise the
  // recovery assertion would be vacuous.
  EXPECT_EQ(out.pre_fault_layers, params.stream_layers) << "seed " << params.seed;
  // No negative buffers, packets flowing after the faults cleared, and
  // recovery to the pre-fault layer count within the bound.
  EXPECT_GE(out.min_client_buffer, 0.0) << "seed " << params.seed;
  EXPECT_GT(out.packets_received_tail, 0) << "seed " << params.seed;
  EXPECT_TRUE(out.recovered)
      << "seed " << params.seed << ": pre-fault layers " << out.pre_fault_layers
      << " not regained within " << params.recovery_bound.sec()
      << " s (recovery_time=" << out.recovery_time.sec() << " s)";
  EXPECT_LE(out.recovery_time, params.recovery_bound) << "seed " << params.seed;
  EXPECT_TRUE(out.ok(params)) << "seed " << params.seed;
  // Rebuffer bookkeeping is internally consistent.
  EXPECT_GE(out.rebuffer_time, TimeDelta::zero());
  EXPECT_GE(out.rebuffer_max_recovery, TimeDelta::zero());
  if (out.rebuffer_events == 0) {
    EXPECT_EQ(out.rebuffer_time, TimeDelta::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Range<uint64_t>(1, 51));

// Deterministic total data outage: the client must report an explicit
// rebuffer interval (pause + resume) instead of a negative buffer, and the
// transport must go quiescent-free (ACKs still flow for delivered data) but
// the adapter must shed layers.
TEST(ChaosDeterministic, DataOutageYieldsRebufferIntervalNotNegativeBuffer) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = Rate::kilobytes_per_sec(25);
  topo.rtt = TimeDelta::millis(40);
  topo.bottleneck_queue_bytes = 10'000;
  const sim::Dumbbell d = sim::build_dumbbell(net, topo);

  SessionConfig cfg;
  cfg.adapter.consumption_rate = 2'500;
  cfg.adapter.max_layers = 4;
  cfg.adapter.kmax = 2;
  cfg.cc.packet_size = 500;
  cfg.cc.initial_rate = Rate::bytes_per_sec(2'500);
  cfg.cc.initial_rtt = TimeDelta::millis(40);
  Session session(net, d.left[0], d.right[0], cfg);

  sim::FaultInjector inj(&net.scheduler());
  sim::OutagePolicy policy;  // drop in-flight, keep queue
  inj.outage(d.bottleneck, TimePoint::from_sec(12), TimeDelta::seconds(8),
             policy);

  // Sample the client the way a player would: frequent sync so the pause is
  // noticed even with zero arrivals, watching for negative buffers.
  double min_buffer = 0;
  bool saw_pause = false;
  for (int s = 1; s <= 400; ++s) {
    net.scheduler().schedule_at(
        TimePoint::from_sec(0.1 * s), [&session, &min_buffer, &saw_pause] {
          session.client().sync();
          min_buffer = std::min(min_buffer, session.client().buffer(0));
          saw_pause = saw_pause || session.client().rebuffering();
        });
  }
  net.run(TimePoint::from_sec(40));
  session.client().sync();

  const VideoClient& client = session.client();
  EXPECT_GE(min_buffer, 0.0);
  EXPECT_TRUE(saw_pause);
  ASSERT_GE(client.rebuffers().count(), 1);
  const auto& ev = client.rebuffers().events().front();
  EXPECT_TRUE(ev.recovered);
  EXPECT_LE(ev.stall_start, ev.pause_start);
  EXPECT_LT(ev.pause_start, ev.resumed);
  // The interruption covers a large part of the 8 s outage.
  EXPECT_GT(client.base_stall(), TimeDelta::seconds(2));
  // Playback is running again at the end.
  EXPECT_FALSE(client.rebuffering());
  // The outage tripped the source's starvation handling and the server's
  // base-layer-only degradation at least once.
  EXPECT_GE(session.controller().quiescence_entries(), 1);
  EXPECT_GE(session.server().adapter().degraded_entries(), 1);
}

}  // namespace
}  // namespace qa::app
