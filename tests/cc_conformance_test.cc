// Backend conformance kit: every congestion-control backend (rap, tfrc,
// nada) must uphold the contract the QA stack assumes of its transport,
// regardless of how the backend computes its rate. One value-parameterized
// suite pins, per backend:
//   (a) the TCP-friendly envelope under mixed load — per-flow goodput
//       within a factor of 4 of the competing TCP flows' mean (the fig
//       11/13 setting), neither starved nor dominant;
//   (b) the §2.3–§2.4 adapter invariants — buffers never go negative and
//       drop events stay efficient — because the QualityAdapter runs
//       unmodified on top of whatever rate signal the backend emits;
//   (c) ACK-starvation quiescence entry and post-outage recovery, which
//       live in the shared cc::CongestionController engine and must
//       survive each backend's step/congestion overrides;
//   (d) same-seed determinism — a backend is a pure function of (params,
//       feedback), so two identical runs digest identically at any worker
//       count (DESIGN.md §12 extended to the backend axis).
// Per-backend fig-2-style goldens are pinned separately by the
// qa_golden_fig2* ctests (tools/qa_golden_check.cmake).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/session.h"
#include "app/sweep.h"
#include "app/tool_flags.h"
#include "cc/congestion_controller.h"
#include "sim/fault.h"
#include "sim/topology.h"

namespace qa::app {
namespace {

class BackendConformance : public ::testing::TestWithParam<cc::Backend> {
 protected:
  cc::Backend backend() const { return GetParam(); }
};

// (a) Mixed-load TCP-friendliness: one QA flow against two TCP flows plus
// a CBR burst over the default 800 Kb/s dumbbell. Every backend must land
// inside the [mean_tcp/4, mean_tcp*4] envelope — the same bound
// tests/tcp_test.cc pins for the RAP baseline — and respect the link.
TEST_P(BackendConformance, TcpFriendlyEnvelopeUnderMixedLoad) {
  ExperimentParams params;
  params.backend = backend();
  params.rap_flows = 1;  // just the QA flow
  params.tcp_flows = 2;
  params.with_cbr = true;
  params.cbr_start_sec = 10;
  params.cbr_stop_sec = 20;
  params.duration_sec = 30;
  params.seed = 3;
  const ExperimentResult r = run_experiment(params);

  ASSERT_GT(r.mean_tcp_rate_bps, 0);
  ASSERT_GT(r.qa_mean_rate_bps, 0);
  EXPECT_GT(r.qa_mean_rate_bps, r.mean_tcp_rate_bps / 4.0)
      << cc::to_string(backend()) << " starved against TCP";
  EXPECT_LT(r.qa_mean_rate_bps, r.mean_tcp_rate_bps * 4.0)
      << cc::to_string(backend()) << " dominated TCP";
  // The QA flow alone never exceeds the bottleneck.
  const double qa_goodput_Bps =
      static_cast<double>(r.qa_packets_sent) * params.packet_size /
      params.duration_sec;
  EXPECT_LE(qa_goodput_Bps, params.bottleneck.bps() * 1.05);
}

// (b) Adapter invariants under each backend's rate signal: no layer buffer
// and no total-buffer sample may ever go negative (§2.3's consumption model
// draws only what is buffered), and when layers are dropped the buffer
// distribution must have kept most of the total buffering useful (§2.4's
// efficient-distribution criterion, Table 1/2).
TEST_P(BackendConformance, BufferNonNegativityAndEfficientDistribution) {
  ExperimentParams params;
  params.backend = backend();
  params.rap_flows = 2;  // QA flow + one plain-RAP competitor
  params.tcp_flows = 2;
  params.duration_sec = 30;
  params.seed = 5;
  tracedrive::RunSeries s;
  params.series = &s;
  const ExperimentResult r = run_experiment(params);

  ASSERT_EQ(s.times.size(), 300u);
  for (size_t i = 0; i < s.times.size(); ++i) {
    ASSERT_GE(s.total_buffer[i], 0.0) << cc::to_string(backend())
                                      << " total buffer at "
                                      << s.times[i].sec() << " s";
    for (size_t layer = 0; layer < s.layer_buffer.size(); ++layer) {
      ASSERT_GE(s.layer_buffer[layer][i], 0.0)
          << cc::to_string(backend()) << " layer " << layer << " buffer at "
          << s.times[i].sec() << " s";
    }
  }
  EXPECT_GE(r.final_client_total_buffer, 0.0);
  EXPECT_GE(r.final_mirror_total_buffer, 0.0);

  // Efficiency is a fraction by construction; the adapter's §2.4 buffer
  // distribution must keep it high whichever backend drives it.
  const double eff = r.metrics.mean_efficiency();
  EXPECT_GE(eff, 0.0);
  EXPECT_LE(eff, 1.0);
  if (!r.metrics.drops().empty()) {
    EXPECT_GE(eff, 0.5) << cc::to_string(backend())
                        << ": drops wasted most of the buffered data";
  }
  // Table 2's statistic stays a well-formed fraction (its magnitude is
  // scenario-dependent — a backend with one or two drop events can
  // legitimately sit at either extreme).
  EXPECT_GE(r.metrics.poor_distribution_fraction(), 0.0);
  EXPECT_LE(r.metrics.poor_distribution_fraction(), 1.0);
}

// (c) ACK starvation and recovery: a total bottleneck outage must push the
// source into quiescence (stop blind transmission), and clearing the
// outage must bring transmission back — for every backend, since both
// behaviors live in the shared controller engine. Client buffers stay
// non-negative throughout (the rebuffer path, not negative drain).
TEST_P(BackendConformance, AckStarvationQuiescenceAndRecovery) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = Rate::kilobytes_per_sec(25);
  topo.rtt = TimeDelta::millis(40);
  topo.bottleneck_queue_bytes = 10'000;
  const sim::Dumbbell d = sim::build_dumbbell(net, topo);

  SessionConfig cfg;
  cfg.backend = backend();
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

  double min_buffer = 0;
  for (int s = 1; s <= 400; ++s) {
    net.scheduler().schedule_at(TimePoint::from_sec(0.1 * s),
                                [&session, &min_buffer] {
                                  session.client().sync();
                                  min_buffer = std::min(
                                      min_buffer, session.client().buffer(0));
                                });
  }
  // Transmission progress after the outage cleared, sampled well into the
  // recovery window: more packets must leave between 25 s and 40 s.
  int64_t sent_at_25 = 0;
  net.scheduler().schedule_at(TimePoint::from_sec(25), [&session, &sent_at_25] {
    sent_at_25 = session.controller().packets_sent();
  });
  net.run(TimePoint::from_sec(40));
  session.client().sync();

  EXPECT_GE(min_buffer, 0.0);
  EXPECT_GE(session.controller().quiescence_entries(), 1)
      << cc::to_string(backend()) << " never went quiescent during the outage";
  EXPECT_FALSE(session.controller().quiescent())
      << cc::to_string(backend()) << " stuck in quiescence after recovery";
  EXPECT_GT(session.controller().packets_sent(), sent_at_25)
      << cc::to_string(backend()) << " stopped transmitting after the outage";
}

// (d) Same-seed determinism, via the sweep digest: a one-backend grid run
// twice — serial and parallel — must produce byte-identical rows, and each
// row must carry this backend's coordinate.
TEST_P(BackendConformance, SameSeedRunsDigestIdentically) {
  SweepGrid grid;
  grid.base.duration_sec = 3;
  grid.base.rap_flows = 1;
  grid.base.tcp_flows = 1;
  grid.seeds = {11, 12};
  grid.backends = {backend()};

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;
  const SweepResult a = run_sweep(grid, serial);
  const SweepResult b = run_sweep(grid, parallel);
  ASSERT_EQ(a.rows.size(), grid.size());
  ASSERT_EQ(b.rows.size(), grid.size());
  EXPECT_EQ(sweep_digest(a.rows), sweep_digest(b.rows));
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_TRUE(a.rows[i].ok) << "scenario " << i;
    EXPECT_EQ(a.rows[i].backend, backend());
    EXPECT_EQ(sweep_row_cells(a.rows[i]), sweep_row_cells(b.rows[i]))
        << "scenario " << i;
    // The CSV cell names the backend, so merged multi-backend sweeps stay
    // self-describing.
    const auto cells = sweep_row_cells(a.rows[i]);
    EXPECT_NE(std::find(cells.begin(), cells.end(),
                        std::string(cc::to_string(backend()))),
              cells.end());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance, ::testing::ValuesIn(cc::all_backends()),
    [](const ::testing::TestParamInfo<cc::Backend>& param_info) {
      return std::string(cc::to_string(param_info.param));
    });

// The backend name round-trip every CLI goes through (app/tool_flags):
// each backend parses back from its own name, and an unknown name is
// rejected with a message that lists what the user could have typed.
TEST(BackendParsing, RoundTripsAndRejectsWithValidValues) {
  const auto read_backend = [](const std::string& name) {
    const std::string arg = "--backend=" + name;
    const char* argv[] = {"prog", arg.c_str()};
    ExperimentParams p;
    read_experiment_flags(Flags(2, argv), &p);
    return p.backend;
  };
  for (const cc::Backend b : cc::all_backends()) {
    EXPECT_EQ(read_backend(cc::to_string(b)), b);
  }
  try {
    read_backend("cubic");
    FAIL() << "--backend accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cubic"), std::string::npos) << msg;
    for (const cc::Backend b : cc::all_backends()) {
      EXPECT_NE(msg.find(cc::to_string(b)), std::string::npos) << msg;
    }
  }

  // The sweep's list form: parses multi-backend axes, rejects unknowns
  // and empty elements.
  const auto read_axis = [](const std::string& list) {
    const std::string arg = "--backends=" + list;
    const char* argv[] = {"prog", arg.c_str()};
    SweepGrid grid;
    SweepOptions opts;
    read_sweep_flags(Flags(2, argv), &grid, &opts);
    return grid.backends;
  };
  const std::vector<cc::Backend> axis = read_axis("rap,nada");
  ASSERT_EQ(axis.size(), 2u);
  EXPECT_EQ(axis[0], cc::Backend::kRap);
  EXPECT_EQ(axis[1], cc::Backend::kNada);
  EXPECT_THROW(read_axis("rap,,nada"), std::invalid_argument);
  EXPECT_THROW(read_axis("bbr"), std::invalid_argument);
  EXPECT_THROW(read_axis(""), std::invalid_argument);
}

// The backend axis itself: distinct backends occupy distinct grid
// coordinates (distinct derived seeds) and genuinely distinct transports —
// the three backends must not collapse into the same rate trajectory.
TEST(BackendAxis, BackendsAreDistinctCoordinatesAndBehaviors) {
  SweepGrid grid;
  grid.base.duration_sec = 5;
  grid.base.rap_flows = 1;
  grid.base.tcp_flows = 1;
  grid.backends = cc::all_backends();
  ASSERT_EQ(grid.size(), cc::all_backends().size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.params_at(i).backend, cc::all_backends()[i]);
    for (size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_NE(derive_job_seed(grid, i), derive_job_seed(grid, j));
    }
  }

  const SweepResult r = run_sweep(grid, SweepOptions{});
  ASSERT_EQ(r.rows.size(), cc::all_backends().size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    ASSERT_TRUE(r.rows[i].ok);
    EXPECT_GT(r.rows[i].qa_mean_rate_bps, 0);
    for (size_t j = i + 1; j < r.rows.size(); ++j) {
      EXPECT_NE(r.rows[i].qa_mean_rate_bps, r.rows[j].qa_mean_rate_bps)
          << cc::to_string(r.rows[i].backend) << " and "
          << cc::to_string(r.rows[j].backend)
          << " produced identical mean rates";
    }
  }
}

}  // namespace
}  // namespace qa::app
