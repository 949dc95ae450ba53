// qa_paper: every reproduced figure, table, ablation and extension study in
// one binary.
//
//   qa_paper [SECTION...]
//
// runs the named sections in the order given; with no argument it runs all
// of them in paper order (see kSections). Each section prints the rows or
// series the paper reports and writes full-resolution CSVs under
// ./bench_out/. The full-simulation sections (figs 11-13, Tables 1-2, the
// ablations and the RED panel) read their results through one run memo,
// so each distinct T1/T2 parameter set is simulated once per process.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "app/session.h"
#include "bench_util.h"
#include "cc/ack_sink.h"
#include "cc/rap_source.h"
#include "core/baseline_policies.h"
#include "core/buffer_math.h"
#include "core/nonlinear.h"
#include "core/state_sequence.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"
#include "tracedrive/bandwidth_trace.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace qa;
using namespace qa::app;
using namespace qa::core;
using namespace qa::tracedrive;

namespace {

// C = 10 kB/s, S = 20 kB/s^2: the scale of the conceptual figures 3-10.
const AimdModel kModel{10'000.0, 20'000.0};

// A full-simulation result with the sampled series of its QA flow.
struct Run : ExperimentResult {
  RunSeries series;
};

// Every full-simulation result comes from here: each distinct parameter
// set is simulated once per process, however many sections report it.
const Run& run(const ExperimentParams& params) {
  static std::deque<std::pair<ExperimentParams, Run>> memo;
  for (const auto& [p, r] : memo) {
    if (p == params) return r;
  }
  Run& r = memo.emplace_back(params, Run{}).second;
  ExperimentParams recorded = params;
  recorded.series = &r.series;
  static_cast<ExperimentResult&>(r) = run_experiment(recorded);
  return r;
}

// The largest value of a column, floored at 0.
double peak(std::span<const double> column) {
  double m = 0;
  for (double v : column) m = std::max(m, v);
  return m;
}

// The figures the tables report for one run. The per-drop averages
// (poor_fraction, efficiency) mean nothing when drops == 0.
struct Summary {
  size_t drops = 0;
  size_t poor = 0;  // drops caused by poor buffer distribution
  double poor_fraction = 0;
  double efficiency = 0;   // Table 1's e
  double mean_layers = 0;  // time-averaged quality over [5 s, end]
  double stall_s = 0;      // base-layer stall
  int quality_changes = 0;
  double peak_buffer = 0;  // max total receiver buffering (B)
};

Summary summarize(const AdapterMetrics& m, const RunSeries& series,
                  TimeDelta stall, double duration_sec) {
  Summary s;
  s.drops = m.drops().size();
  for (const auto& d : m.drops()) {
    if (d.poor_distribution) ++s.poor;
  }
  s.poor_fraction = m.poor_distribution_fraction();
  s.efficiency = m.mean_efficiency();
  s.mean_layers = m.mean_quality(TimePoint::from_sec(5),
                                 TimePoint::from_sec(duration_sec));
  s.stall_s = stall.sec();
  s.quality_changes = m.quality_changes();
  s.peak_buffer = peak(series.total_buffer);
  return s;
}

Summary summarize(const ExperimentParams& p) {
  const Run& r = run(p);
  return summarize(r.metrics, r.series, r.client_base_stall, p.duration_sec);
}

// A per-drop average as a percentage, or "-" for a run without drops.
std::string per_drop(const Summary& s, double fraction, int digits) {
  return s.drops ? bench::pct(fraction, digits) : "-";
}

// Appends the CSV columns <prefix>0 .. <prefix>(n-1) from a per-layer
// column vector.
void add_layer_columns(std::vector<std::string>& names,
                       std::vector<std::span<const double>>& columns,
                       const std::string& prefix,
                       const std::vector<std::vector<double>>& per_layer,
                       int n) {
  for (int i = 0; i < n; ++i) {
    names.push_back(prefix + std::to_string(i));
    columns.emplace_back(per_layer[static_cast<size_t>(i)]);
  }
}

// One plain RAP or TCP flow over dumbbell pair `i`: its source and sink.
template <typename Source, typename Sink, typename Params>
std::pair<Source*, Sink*> add_flow(sim::Network& net, const sim::Dumbbell& d,
                                   int i, const Params& params) {
  const sim::FlowId flow = net.allocate_flow_id();
  auto* src = net.adopt_agent(
      d.left[i], flow,
      std::make_unique<Source>(&net.scheduler(), d.left[i], d.right[i]->id(),
                               flow, params));
  return {src, net.adopt_agent(d.right[i], flow,
                               std::make_unique<Sink>(&net.scheduler(),
                                                      d.right[i]))};
}

// Figure 1: transmission rate of a single RAP flow (no fine-grain
// adaptation) over a bottleneck link — the AIMD sawtooth the quality
// adaptation mechanism is built around.
//
// The paper plots ~20 s of a flow hunting around the link bandwidth. We
// run one RAP flow on a dedicated bottleneck, record its instantaneous
// rate, and report the oscillation statistics: the sawtooth should cover
// roughly [0.5x, 1.2x] of the link rate with a regular period.
void fig01() {
  bench::banner("Figure 1: RAP sawtooth (single flow, drop-tail bottleneck)");

  const Rate link = Rate::kilobytes_per_sec(12);  // paper's ~10-13 kB/s scale
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = 1;
  topo.bottleneck_bw = link;
  topo.rtt = TimeDelta::millis(40);
  // A few packets of buffering: the default one-BDP floor would add ~300 ms
  // of queueing delay on a link this slow and stretch the sawtooth.
  topo.bottleneck_queue_bytes = 2000;
  sim::Dumbbell d = sim::build_dumbbell(net, topo);

  cc::CcParams params;
  params.packet_size = 500;
  params.initial_rate = Rate::kilobytes_per_sec(4);
  const auto [src, sink] =
      add_flow<cc::RapSource, cc::AckSink>(net, d, 0, params);

  // Sample the instantaneous rate every 100 ms over the fig-1 window.
  TimeSeries rate_series;
  const double duration = 40.0;
  for (int i = 1; i <= static_cast<int>(duration * 10); ++i) {
    const TimePoint at = TimePoint::from_sec(i * 0.1);
    net.scheduler().schedule_at(
        at, [&, at] { rate_series.add(at, src->rate().bps()); });
  }
  net.run(TimePoint::from_sec(duration));

  // Report over the settled window [20 s, 40 s] like the paper's axis.
  RunningStats settled;
  int backoff_like = 0;
  double prev = 0;
  const SeriesView rates = rate_series.view();
  for (size_t i = 0; i < rates.size(); ++i) {
    if (rates.times[i].sec() < 20.0) continue;
    const double value = rates.values[i];
    settled.add(value);
    if (prev > 0 && value < prev * 0.7) ++backoff_like;
    prev = value;
  }

  bench::TablePrinter table({"metric", "value"}, 26);
  table.print_header();
  table.print_row({"link bandwidth (kB/s)", bench::fmt(link.kBps())});
  table.print_row({"mean rate (kB/s)", bench::fmt(settled.mean() / 1000)});
  table.print_row({"min rate (kB/s)", bench::fmt(settled.min() / 1000)});
  table.print_row({"max rate (kB/s)", bench::fmt(settled.max() / 1000)});
  table.print_row({"rate stddev (kB/s)", bench::fmt(settled.stddev() / 1000)});
  table.print_row({"backoffs detected", bench::fmt(src->backoffs(), 0)});
  table.print_row(
      {"goodput (kB/s)",
       bench::fmt(static_cast<double>(sink->bytes_received()) / duration /
                  1000)});

  bench::write_series_csv("fig01_rap_rate.csv", rates.times, {"rate_bps"},
                          {rates.values});

  std::printf(
      "\nPaper shape: regular sawtooth hunting around the link rate.\n"
      "Reproduced: mean within %.0f%% of link, oscillation span "
      "[%.1f, %.1f] kB/s, %d multiplicative drops in 20 s.\n",
      100.0 * settled.mean() / link.bps(), settled.min() / 1000,
      settled.max() / 1000, backoff_like);
}

// Figure 2: layered encoding with receiver buffering — the conceptual
// overview trace. A quality-adaptive stream starts, adds layers, suffers
// two backoffs, and bridges the draining phases from receiver buffers.
//
// Panels reproduced:
//   (a) available bandwidth vs consumption rate over time (top graph);
//   (b) per-packet playout sequence: transmission time vs playout time per
//       layer — the horizontal gap is the per-packet buffering the paper
//       draws as horizontal lines.
void fig02() {
  bench::banner("Figure 2: layered encoding with receiver buffering");

  // Deterministic trajectory mirroring the figure: bandwidth ramps up past
  // one then two layers' consumption, with two backoffs along the way. The
  // cap sits just above the two-layer consumption so buffering stays at the
  // modest scale the figure draws.
  AimdTrajectory traj(8'000, 4'000);
  traj.set_rate_cap(25'000);
  traj.add_backoff(8.0);
  traj.add_backoff(15.0);

  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;  // C = 10 kB/s per layer
  cfg.max_layers = 2;             // the figure shows layer 0 and layer 1
  cfg.kmax = 1;
  cfg.playout_delay = TimeDelta::seconds(2);

  RunSeries series;
  const auto result = run_trace(traj, cfg, 20.0, /*packet_bytes=*/1000,
                                /*sample_dt_sec=*/0.1,
                                /*keep_packet_log=*/true, &series);

  bench::write_series_csv("fig02_bandwidth.csv", series.times,
                          {"transmission_rate", "consumption_rate"},
                          {series.rate, series.consumption});

  {
    CsvWriter csv(bench::out_path("fig02_packets.csv"),
                  {"layer", "layer_seq", "tx_time_sec", "playout_time_sec"});
    for (const auto& p : result.packet_log) {
      csv.row({static_cast<double>(p.layer),
               static_cast<double>(p.layer_seq), p.t, p.playout});
    }
    std::printf("  wrote %s (%zu packets)\n",
                bench::out_path("fig02_packets.csv").c_str(),
                result.packet_log.size());
  }

  // Summarize the buffering the playout lines encode: mean arrival->playout
  // gap per layer in each phase.
  bench::TablePrinter table(
      {"layer", "pkts", "mean_gap_s", "max_gap_s"}, 12);
  table.print_header();
  for (int layer = 0; layer < cfg.max_layers; ++layer) {
    RunningStats gap;
    for (const auto& p : result.packet_log) {
      if (p.layer == layer) gap.add(p.playout - p.t);
    }
    table.print_row({bench::fmt(layer, 0), bench::fmt(gap.count(), 0),
                     bench::fmt(gap.mean(), 3), bench::fmt(gap.max(), 3)});
  }

  std::printf(
      "\nPaper shape: base layer holds more buffering than the enhancement\n"
      "layer; draining phases after each backoff consume the buffers while\n"
      "playback continues. Base stall time: %.3f s (expected 0 after the\n"
      "startup delay); layer count finished at %d.\n",
      result.base_stall.sec(),
      static_cast<int>(series.layers.back()));
}

// Figures 3-5: the closed-form geometry of filling/draining and the
// optimal inter-layer buffer distribution.
//
//   fig 3 — one congestion-control cycle: filling area (triangle abc) and
//           draining area (triangle cde) for a given rate/consumption;
//   fig 4 — the optimal per-layer distribution after a single backoff
//           (bands of the deficit triangle, base layer largest);
//   fig 5 — the sequential filling / reverse draining pattern, regenerated
//           by replaying a deterministic single-backoff trajectory through
//           the real adapter and recording per-layer buffers.
void fig03_05() {
  bench::banner("Figure 3: filling and draining geometry of one AIMD cycle");
  {
    const double rate_peak = 55'000;  // rate at the backoff instant
    const int na = 4;                 // 40 kB/s total consumption
    const double consumption = na * kModel.consumption_rate;
    const double fill_height = rate_peak - consumption;
    const double drain_height = consumption - rate_peak / 2;
    bench::TablePrinter t({"quantity", "value"}, 34);
    t.print_header();
    t.print_row({"peak rate R (kB/s)", bench::fmt(rate_peak / 1000)});
    t.print_row({"consumption n_a*C (kB/s)", bench::fmt(consumption / 1000)});
    t.print_row({"filling phase length (s)",
                 bench::fmt(fill_height / kModel.slope, 3)});
    t.print_row({"spare data stored (bytes, tri abc)",
                 bench::fmt(triangle_area(fill_height, kModel.slope), 1)});
    t.print_row({"draining phase length (s)",
                 bench::fmt(drain_height / kModel.slope, 3)});
    t.print_row({"deficit from buffer (bytes, tri cde)",
                 bench::fmt(triangle_area(drain_height, kModel.slope), 1)});
  }

  bench::banner("Figure 4: optimal inter-layer allocation, single backoff");
  {
    const double rate = 55'000;
    const int na = 4;
    const double height =
        na * kModel.consumption_rate - rate / 2;  // 12.5 kB/s deficit
    const int nb = buffering_layers(height, kModel.consumption_rate);
    std::printf("R=%.0f kB/s, n_a=%d, deficit height %.1f kB/s -> n_b=%d "
                "buffering layers\n\n",
                rate / 1000, na, height / 1000, nb);
    bench::TablePrinter t({"layer", "optimal_bytes", "share"}, 16);
    t.print_header();
    const double total = triangle_area(height, kModel.slope);
    for (int i = 0; i < na; ++i) {
      const double share = band_share(height, i, kModel.consumption_rate,
                                      kModel.slope);
      t.print_row({bench::fmt(i, 0), bench::fmt(share, 1),
                   bench::pct(total > 0 ? share / total : 0, 1)});
    }
    t.print_row({"total", bench::fmt(total, 1), "100%"});
  }

  bench::banner("Figure 5: sequential filling and reverse draining");
  {
    // Ramp to a plateau, then one backoff: the adapter should fill buffers
    // bottom-up (L0 first) and drain the deficit from the lowest layers'
    // buffers while the network feeds the upper layers.
    AimdTrajectory traj(30'000, 20'000);
    traj.set_rate_cap(58'000);
    traj.add_backoff(15.0);

    AdapterConfig cfg;
    cfg.consumption_rate = 10'000;
    cfg.max_layers = 5;
    cfg.kmax = 1;  // fig 5 predates smoothing
    cfg.playout_delay = TimeDelta::seconds(1);
    RunSeries series;
    const auto result = run_trace(traj, cfg, 25.0, /*packet_bytes=*/1000,
                                  /*sample_dt_sec=*/0.1,
                                  /*keep_packet_log=*/false, &series);

    std::vector<std::string> names = {"rate", "consumption"};
    std::vector<std::span<const double>> columns = {series.rate,
                                                    series.consumption};
    add_layer_columns(names, columns, "buf_L", series.layer_buffer,
                      cfg.max_layers);
    bench::write_series_csv("fig05_fill_drain.csv", series.times, names,
                            columns);

    // Filling order: time each layer's buffer first exceeded a few packets
    // (single-packet jitter around the consumption parity is not filling).
    bench::TablePrinter t({"layer", "first_buffered_s", "peak_bytes"}, 18);
    t.print_header();
    for (int i = 0; i < cfg.max_layers; ++i) {
      double first = -1, peak = 0;
      const auto& buffer = series.layer_buffer[static_cast<size_t>(i)];
      for (size_t j = 0; j < buffer.size(); ++j) {
        if (buffer[j] > 2'500 && first < 0) {
          first = series.times[j].sec();
        }
        peak = std::max(peak, buffer[j]);
      }
      t.print_row({bench::fmt(i, 0),
                   first < 0 ? "never" : bench::fmt(first, 2),
                   bench::fmt(peak, 0)});
    }
    std::printf("\nPaper shape: lower layers begin buffering earlier and "
                "hold more data;\nafter the backoff the buffers drain while "
                "playback (base stall %.3f s) continues.\n",
                result.base_stall.sec());
  }
}

// Figure 6: the revised draining algorithm with smoothing — two
// consecutive filling/draining phases where, thanks to Kmax > 1, the
// server keeps buffering past the single-backoff requirement instead of
// adding a layer, and walks the optimal-state path backwards on backoffs.
void fig06() {
  bench::banner("Figure 6: filling/draining with smoothing (Kmax=2)");

  // Two fill/drain phases: backoffs at 12 s and (double) at 20/20.6 s.
  AimdTrajectory traj(35'000, 20'000);
  traj.set_rate_cap(52'000);
  traj.add_backoff(12.0);
  traj.add_backoff(20.0);
  traj.add_backoff(20.6);

  AdapterConfig cfg;
  cfg.consumption_rate = 10'000;
  cfg.max_layers = 6;
  cfg.kmax = 2;
  cfg.playout_delay = TimeDelta::seconds(1);

  RunSeries series;
  const auto result = run_trace(traj, cfg, 30.0, /*packet_bytes=*/1000,
                                /*sample_dt_sec=*/0.1,
                                /*keep_packet_log=*/false, &series);

  std::vector<std::string> names = {"rate", "consumption", "total_buffer"};
  std::vector<std::span<const double>> columns = {
      series.rate, series.consumption, series.total_buffer};
  add_layer_columns(names, columns, "buf_L", series.layer_buffer, 4);
  bench::write_series_csv("fig06_smoothing.csv", series.times, names,
                          columns);

  // The fig-6 claim: after the first drain the stream does NOT immediately
  // add a layer once a single backoff's worth is buffered — it keeps
  // buffering (Kmax=2). Measure total buffering just before each backoff.
  bench::TablePrinter t({"instant", "total_buffer_B", "layers"}, 20);
  t.print_header();
  for (double at : {11.9, 13.5, 19.9, 21.5, 29.0}) {
    const TimePoint when = TimePoint::from_sec(at);
    t.print_row(
        {bench::fmt(at, 1),
         bench::fmt(series.view(series.total_buffer).step_value_at(when), 0),
         bench::fmt(series.view(series.layers).step_value_at(when), 0)});
  }
  std::printf(
      "\nQuality changes over 30 s: %d (adds %zu, drops %zu); base stall "
      "%.3f s.\nPaper shape: buffers deepen between backoffs, drain on each "
      "backoff, and\nthe layer count stays smooth despite three backoffs.\n",
      result.metrics.quality_changes(), result.metrics.adds().size(),
      result.metrics.drops().size(), result.base_stall.sec());
}

// Figure 7: possible double-backoff scenarios. For k = 2 backoffs the
// total buffer requirement and the number of buffering layers depend on
// WHEN the second backoff lands: scenario 1 (both at once) needs the most
// buffering layers, scenario 2 (spread a full recovery apart) the fewest;
// intermediate timings fall in between. We print both extremes across a
// rate sweep, plus a numerically simulated intermediate scenario.

// Numerically integrates the deficit for an intermediate scenario: first
// backoff at rate R, second one `gap_sec` into the recovery.
double intermediate_deficit(double rate, int na, const AimdModel& m,
                            double gap_sec) {
  const double consumption = na * m.consumption_rate;
  double r = rate / 2;
  double deficit = 0;
  const double dt = 1e-3;
  bool second_done = false;
  for (double t = 0; t < 60; t += dt) {
    if (!second_done && t >= gap_sec) {
      r /= 2;
      second_done = true;
    }
    if (r < consumption) deficit += (consumption - r) * dt;
    r += m.slope * dt;
    if (second_done && r >= consumption) break;
  }
  return deficit;
}

void fig07() {
  bench::banner("Figure 7: double-backoff scenarios (k = 2)");
  const int na = 3;

  bench::TablePrinter t({"R_kBps", "s1_total", "s1_layers", "s2_total",
                         "s2_layers", "mid_total"},
                        12);
  t.print_header();
  for (double rate : {35'000.0, 45'000.0, 55'000.0, 65'000.0, 80'000.0}) {
    const double s1 =
        total_buf_required(Scenario::kClustered, 2, rate, na, kModel);
    const double s2 =
        total_buf_required(Scenario::kSpread, 2, rate, na, kModel);
    const int nb1 = buffering_layers(
        deficit_height(Scenario::kClustered, 2, rate, na, kModel),
        kModel.consumption_rate);
    const int nb2 = buffering_layers(
        deficit_height(Scenario::kSpread, 2, rate, na, kModel),
        kModel.consumption_rate);
    // Intermediate: second backoff halfway through the first recovery.
    const double gap =
        std::max(0.0, (na * kModel.consumption_rate - rate / 2)) /
        kModel.slope / 2;
    const double mid = intermediate_deficit(rate, na, kModel, gap);
    t.print_row({bench::fmt(rate / 1000, 0), bench::fmt(s1, 0),
                 bench::fmt(nb1, 0), bench::fmt(s2, 0), bench::fmt(nb2, 0),
                 bench::fmt(mid, 0)});
  }

  std::printf(
      "\nPaper shape: scenario 1 (clustered) needs the deepest dip and the\n"
      "most buffering layers; scenario 2 (spread) the fewest; intermediate\n"
      "timings (scenario 3) land between the extremes.\n");
}

// Figures 8-10: the optimal buffer states and the maximally efficient
// filling order.
//
//   fig 8  — per-layer optimal distributions for k = 1..5 backoffs, both
//            scenarios (raw targets);
//   fig 9  — the same states ordered by total required buffering, showing
//            the per-layer monotonicity violations of the raw order;
//   fig 10 — the step-by-step sequence after applying the fig-10
//            constraint (scenario-2 states clamped between neighbouring
//            scenario-1 states): per-layer targets now grow monotonically.

constexpr double kStatesRate = 90'000;  // filling-phase rate the states assume
constexpr int kStatesLayers = 5;

const std::vector<double>& targets(const BufferState& st, bool adjusted) {
  return adjusted ? st.adjusted_targets : st.raw_targets;
}

void print_states(const char* title, std::span<const BufferState> states,
                  bool adjusted) {
  bench::banner(title);
  std::vector<std::string> headers = {"scenario", "k", "total_B"};
  for (int i = 0; i < kStatesLayers; ++i) {
    headers.push_back("L");
    headers.back() += std::to_string(i);
  }
  bench::TablePrinter t(headers, 10);
  t.print_header();
  for (const BufferState& st : states) {
    std::vector<std::string> row = {
        st.scenario == Scenario::kClustered ? "S1" : "S2",
        bench::fmt(st.k, 0), bench::fmt(st.total, 0)};
    for (double v : targets(st, adjusted)) row.push_back(bench::fmt(v, 0));
    t.print_row(row);
  }
}

// Per-layer targets that shrink from one state to the next along `states`.
int monotonicity_violations(std::span<const BufferState> states,
                            bool adjusted) {
  int violations = 0;
  std::vector<double> prev(kStatesLayers, 0.0);
  for (const BufferState& st : states) {
    const std::vector<double>& cur = targets(st, adjusted);
    for (size_t i = 0; i < prev.size(); ++i) {
      if (cur[i] < prev[i] - 1e-6) ++violations;
    }
    prev = cur;
  }
  return violations;
}

void fig08_10() {
  std::printf("Buffer states for R = %.0f kB/s, C = %.0f kB/s, S = %.0f "
              "kB/s^2, %d layers\n",
              kStatesRate / 1000, kModel.consumption_rate / 1000,
              kModel.slope / 1000, kStatesLayers);

  const StateSequence raw(kStatesRate, kStatesLayers, kModel, 5,
                          /*monotone=*/false);

  // Fig 8: raw distributions grouped by k (natural order).
  std::vector<BufferState> by_k(raw.states().begin(), raw.states().end());
  std::ranges::sort(by_k, {}, [](const BufferState& st) {
    return std::pair(st.k, static_cast<int>(st.scenario));
  });
  print_states("Figure 8: optimal distributions by k (raw)", by_k,
               /*adjusted=*/false);

  // Fig 9: ordered by total; flag the monotonicity violations.
  print_states("Figure 9: states ordered by total buffering (raw)",
               raw.states(), /*adjusted=*/false);
  std::printf("\nPer-layer monotonicity violations in the raw order: %d "
              "(the fig-9 problem —\nreaching some states would require "
              "draining a layer mid-fill).\n",
              monotonicity_violations(raw.states(), /*adjusted=*/false));

  // Fig 10: the constrained sequence.
  const StateSequence seq(kStatesRate, kStatesLayers, kModel, 5,
                          /*monotone=*/true);
  print_states(
      "Figure 10: maximally efficient step sequence (fig-10 constraint)",
      seq.states(), /*adjusted=*/true);
  std::printf("\nViolations after the constraint: %d (expected 0 — every "
              "layer's target grows\nmonotonically along the path, so "
              "filling never has to drain a buffer).\n",
              monotonicity_violations(seq.states(), /*adjusted=*/true));

  CsvWriter csv(bench::out_path("fig10_states.csv"),
                {"order", "scenario", "k", "total", "L0", "L1", "L2", "L3",
                 "L4"});
  int order = 0;
  for (const BufferState& st : seq.states()) {
    std::vector<double> row = {static_cast<double>(order++),
                               static_cast<double>(st.scenario),
                               static_cast<double>(st.k), st.total};
    for (double v : st.adjusted_targets) row.push_back(v);
    csv.row(row);
  }
  std::printf("  wrote %s\n", bench::out_path("fig10_states.csv").c_str());
}

// Figure 11: the paper's headline 40-second trace. One quality-adaptive
// RAP flow shares a drop-tail bottleneck with 9 plain RAP flows and 10
// TCP flows (40 ms RTT), smoothing factor Kmax = 2. Reproduces all five
// panels as CSV series:
//   1. total transmission rate + consumption rate of the active layers,
//   2. transmit rate breakdown per layer,
//   3. per-layer bandwidth share (same data, separate columns),
//   4. per-layer buffer drain rate,
//   5. per-layer accumulated receiver buffering.
//
// Parameter note (DESIGN.md §3): the headline run uses the paper's literal
// 800 Kb/s bottleneck with ns-2-style deep drop-tail queueing (the ~0.5 s
// of queueing delay is what gives the paper its multi-second AIMD cycles)
// and C scaled to the 20-flow fair share; a 10x-scaled 8 Mb/s variant with
// the paper's printed C = 10 kB/s follows for completeness.
void fig11_report(const char* tag, const ExperimentParams& p) {
  const Run& r = run(p);
  const Summary s = summarize(p);
  bench::banner(std::string("fig 11 run: ") + tag);

  std::vector<std::string> names = {"rate", "consumption", "total_buffer"};
  std::vector<std::span<const double>> columns = {
      r.series.rate, r.series.consumption, r.series.total_buffer};
  add_layer_columns(names, columns, "send_L", r.series.layer_send_rate,
                    p.stream_layers);
  add_layer_columns(names, columns, "drain_L", r.series.layer_drain_rate,
                    p.stream_layers);
  add_layer_columns(names, columns, "buf_L", r.series.layer_buffer,
                    p.stream_layers);
  bench::write_series_csv(std::string("fig11_") + tag + ".csv",
                          r.series.times, names, columns);

  bench::TablePrinter t({"metric", "value"}, 30);
  t.print_header();
  t.print_row({"mean QA rate (kB/s)", bench::fmt(r.qa_mean_rate_bps / 1000)});
  t.print_row({"mean quality (layers)", bench::fmt(s.mean_layers, 2)});
  t.print_row({"max quality (layers)", bench::fmt(peak(r.series.layers), 0)});
  t.print_row({"layer adds", bench::fmt(r.metrics.adds().size(), 0)});
  t.print_row({"layer drops", bench::fmt(s.drops, 0)});
  t.print_row({"backoffs", bench::fmt(r.qa_backoffs, 0)});
  t.print_row({"peak total buffering (B)", bench::fmt(s.peak_buffer, 0)});
  t.print_row({"buffering efficiency e", bench::pct(s.efficiency)});
  t.print_row({"base stall (s)", bench::fmt(s.stall_s, 3)});
}

void fig11() {
  // Headline configuration: the paper-literal 800 Kb/s bottleneck.
  const ExperimentParams p = ExperimentParams::t1(/*kmax=*/2);
  fig11_report("800kbps", p);

  // 10x-scaled variant with the paper's printed C = 10 kB/s (the figure
  // scale only fits a link this fast; see DESIGN.md §3). The queue scales
  // with the link to preserve the ~0.5 s queueing-delay regime.
  ExperimentParams big = p;
  big.bottleneck = Rate::megabits_per_sec(8);
  big.bottleneck_queue_bytes = 500'000;
  big.layer_rate = Rate::kilobytes_per_sec(10);
  big.packet_size = 1000;
  fig11_report("8mbps", big);

  std::printf(
      "\nPaper shape: most of the bandwidth variation is absorbed by the\n"
      "lowest layers' buffers; spikes in a layer's bandwidth mark buffer\n"
      "filling. The paper shows no base-layer interruption; the base stall\n"
      "rows above give ours (EXPERIMENTS.md).\n");
}

// Figure 12: effect of the smoothing factor Kmax on quality and buffering.
// The same fig-11 workload is repeated for Kmax in {2, 3, 4}; higher Kmax
// must (a) reduce the number of quality changes, (b) increase the total
// amount of buffering, and (c) push more buffering into higher layers.
void fig12() {
  bench::banner("Figure 12: effect of Kmax on buffering and quality");

  bench::TablePrinter t({"Kmax", "quality_chg", "mean_layers", "max_buf_B",
                         "upper_buf_pct", "drops", "stall_s"},
                        14);
  t.print_header();

  for (int kmax : {2, 3, 4}) {
    const ExperimentParams p = ExperimentParams::t1(kmax);
    const Run& r = run(p);
    const Summary s = summarize(p);

    // Share of buffering held above the base layer, averaged over the
    // second half of the run (fig 12's "more buffering for higher layers").
    double upper = 0, total = 0;
    const size_t n = r.series.total_buffer.size();
    for (size_t i = n / 2; i < n; ++i) {
      const double tot = r.series.total_buffer[i];
      const double base = r.series.layer_buffer[0][i];
      total += tot;
      upper += tot - base;
    }

    t.print_row({bench::fmt(kmax, 0), bench::fmt(s.quality_changes, 0),
                 bench::fmt(s.mean_layers, 2), bench::fmt(s.peak_buffer, 0),
                 bench::pct(total > 0 ? upper / total : 0, 1),
                 bench::fmt(s.drops, 0), bench::fmt(s.stall_s, 3)});

    // Per-layer buffer series for the figure's lower panels.
    std::vector<std::string> names = {"total_buffer", "layers"};
    std::vector<std::span<const double>> columns = {r.series.total_buffer,
                                                    r.series.layers};
    add_layer_columns(names, columns, "buf_L", r.series.layer_buffer, 4);
    bench::write_series_csv("fig12_kmax" + std::to_string(kmax) + ".csv",
                            r.series.times, names, columns);
  }

  std::printf(
      "\nPaper shape: larger Kmax -> fewer quality changes, more total\n"
      "buffering, and a larger share of it in the higher layers (the cost\n"
      "is a longer wait before the best short-term quality appears).\n");
}

// Figure 13: responsiveness to large step changes in available bandwidth.
// The fig-11 workload runs for 90 s with Kmax = 4; a CBR source at half
// the bottleneck bandwidth switches on at t = 30 s and off at t = 60 s.
// The quality adaptation must shed layers during the burst (top layers
// first, base layer never jeopardized) and re-add them afterwards.
void fig13() {
  bench::banner("Figure 13: responsiveness to a CBR bandwidth step (Kmax=4)");

  const ExperimentParams p = ExperimentParams::t2(/*kmax=*/4);
  const Run& r = run(p);

  std::vector<std::string> names = {"rate", "consumption", "layers",
                                    "total_buffer"};
  std::vector<std::span<const double>> columns = {
      r.series.rate, r.series.consumption, r.series.layers,
      r.series.total_buffer};
  add_layer_columns(names, columns, "buf_L", r.series.layer_buffer,
                    p.stream_layers);
  add_layer_columns(names, columns, "send_L", r.series.layer_send_rate,
                    p.stream_layers);
  bench::write_series_csv("fig13_responsiveness.csv", r.series.times, names,
                          columns);

  bench::TablePrinter t({"window", "mean_layers", "mean_rate_kBps"}, 20);
  t.print_header();
  const struct {
    const char* name;
    double from, to;
  } windows[] = {{"before (10-30s)", 10, 30},
                 {"CBR on (35-60s)", 35, 60},
                 {"after (65-90s)", 65, 90}};
  for (const auto& w : windows) {
    const TimePoint a = TimePoint::from_sec(w.from);
    const TimePoint b = TimePoint::from_sec(w.to);
    t.print_row({w.name, bench::fmt(r.metrics.mean_quality(a, b), 2),
                 bench::fmt(
                     r.series.view(r.series.rate).time_average(a, b) / 1000.0,
                     1)});
  }

  std::printf("\nlayer adds: %zu, drops: %zu, efficiency e = %s, base stall "
              "= %.3f s\n",
              r.metrics.adds().size(), r.metrics.drops().size(),
              bench::pct(r.metrics.mean_efficiency()).c_str(),
              r.client_base_stall.sec());
  std::printf(
      "\nPaper shape: quality follows the bandwidth step down and back up;\n"
      "every layer's buffer takes part in the adjustment but the base\n"
      "layer's reception is never jeopardized.\n");
}

// Tables 1 and 2 share a layout: one column per Kmax, the paper's T1 and
// T2 rows, then ours, one run per cell.
void kmax_table(int width, const std::vector<std::string>& t1_paper,
                const std::vector<std::string>& t2_paper,
                std::string (*cell)(const Summary&)) {
  const int kmaxes[] = {2, 3, 4, 5, 8};
  std::vector<std::string> headers = {"test"};
  for (int k : kmaxes) headers.push_back("Kmax=" + std::to_string(k));
  bench::TablePrinter t(headers, width);
  t.print_header();
  t.print_row(t1_paper);
  t.print_row(t2_paper);
  for (const bool with_cbr : {false, true}) {
    std::vector<std::string> row = {with_cbr ? "T2(ours)" : "T1(ours)"};
    for (int kmax : kmaxes) {
      const Summary s = summarize(with_cbr ? ExperimentParams::t2(kmax)
                                           : ExperimentParams::t1(kmax));
      row.push_back(s.drops ? cell(s) : "no-drops");
    }
    t.print_row(row);
  }
}

// Table 1: buffering efficiency. For each drop event the efficiency is
// e = (buf_total - buf_dropped_layer) / buf_total; the table reports the
// average across all drops, for Kmax in {2, 3, 4, 5, 8} under:
//   T1 — the fig-11 workload (10 RAP + 10 TCP),
//   T2 — the fig-13 workload (T1 + a CBR burst).
// The paper reports 96-99.99% everywhere; the reproduction reads 92-98%
// (T1 at Kmax = 2 and 3 sits below 95%): a dropped layer carries little
// buffer, though not as little as in the paper.
void table1() {
  bench::banner("Table 1: buffering efficiency e (average over drop events)");
  kmax_table(12,
             {"T1(paper)", "99.77%", "99.97%", "99.84%", "99.85%", "99.99%"},
             {"T2(paper)", "99.15%", "99.81%", "99.92%", "99.80%", "96.07%"},
             [](const Summary& s) { return bench::pct(s.efficiency); });
  std::printf(
      "\nPaper shape: the optimal allocation leaves almost nothing in a\n"
      "dropped layer (e close to 100%%); sudden bandwidth collapses (T2 at\n"
      "high Kmax) cost a little efficiency because deep buffering shifts\n"
      "data into higher layers.\n");
}

// Table 2: percentage of layer drops caused by poor buffer DISTRIBUTION —
// drops that would not have happened had the same total buffering been
// divided differently among the layers. A drop is classified that way when
// the total buffered bytes at the drop instant were sufficient for the
// recovery deficit yet a layer was still lost.
// The paper reports 0% for T1 at every Kmax and small percentages for T2.
void table2() {
  bench::banner("Table 2: drops due to poor buffer distribution");
  kmax_table(14, {"T1(paper)", "0%", "0%", "0%", "0%", "0%"},
             {"T2(paper)", "2.4%", "0%", "4.8%", "11%", "-"},
             [](const Summary& s) {
               return bench::pct(s.poor_fraction, 0) + "(" +
                      std::to_string(s.poor) + "/" +
                      std::to_string(s.drops) + ")";
             });
  std::printf(
      "\nPaper shape: T1 is perfectly distribution-optimal (0%%), T2 small.\n"
      "Ours: drop counts are tiny (the mechanism rarely drops at all) and\n"
      "the survivors are margin-layer flaps at the top of the sawtooth,\n"
      "which this classification counts as distribution-caused because the\n"
      "aggregate would have sufficed. The per-drop efficiency (Table 1,\n"
      "92-98%%) shows the dropped layers carried little — the\n"
      "paper's substantive claim. See EXPERIMENTS.md for the loss-process\n"
      "difference that drives the classification gap.\n");
}

// Ablation: the paper's optimal inter-layer allocation against the two
// strawmen of §2.3 — equal share per layer, and everything on the base
// layer — on the T1 and T2 workloads. The base-only scheme drops the most
// layers; the equal-share scheme wastes buffer in layers that get dropped
// (the lowest efficiency).
//
// A second panel ablates the fig-10 monotonicity constraint (state
// sequence ordered by total with vs without the per-layer clamp).
void ablation_panel(const char* title, const ExperimentParams& base) {
  bench::banner(title);
  bench::TablePrinter t({"policy", "drops", "poor_dist", "efficiency",
                         "mean_layers", "stall_s", "pkt_losses"},
                        14);
  t.print_header();
  for (AllocationPolicy policy : kAllPolicies) {
    ExperimentParams p = base;
    p.allocation = policy;
    const Summary s = summarize(p);
    t.print_row({policy_name(policy), bench::fmt(s.drops, 0),
                 per_drop(s, s.poor_fraction, 1),
                 per_drop(s, s.efficiency, 2), bench::fmt(s.mean_layers, 2),
                 bench::fmt(s.stall_s, 3), bench::fmt(run(p).qa_losses, 0)});
  }
}

void ablation() {
  ablation_panel("Ablation: allocation policy on T1 (steady cross traffic)",
                 ExperimentParams::t1(2));
  ablation_panel("Ablation: allocation policy on T2 (CBR bandwidth step)",
                 ExperimentParams::t2(4));

  bench::banner("Ablation: fig-10 monotonicity constraint on/off (T2)");
  bench::TablePrinter t(
      {"constraint", "drops", "poor_dist", "efficiency", "stall_s"}, 14);
  t.print_header();
  for (bool monotone : {true, false}) {
    ExperimentParams p = ExperimentParams::t2(4);
    p.monotone = monotone;
    const Summary s = summarize(p);
    t.print_row({monotone ? "on" : "off", bench::fmt(s.drops, 0),
                 per_drop(s, s.poor_fraction, 1),
                 per_drop(s, s.efficiency, 2), bench::fmt(s.stall_s, 3)});
  }
  std::printf(
      "\nMeasured: 'optimal' beats equal-share on drops, efficiency and\n"
      "stall; base-only keeps a higher efficiency and no longer a stall\n"
      "than 'optimal' but drops several times as many layers. Turning the\n"
      "fig-10 constraint off leaves the T2 drops unchanged and costs a\n"
      "fraction of a point of efficiency.\n");
}

// Extension study: sensitivity of quality adaptation to the LOSS PROCESS.
//
// The paper's scenario model (§4) covers backoffs that are either
// clustered or spaced a full recovery apart. Real drop-tail herds also
// produce mid-recovery re-backoffs, which is the regime where our Table-2
// classification diverges from the paper's. This bench quantifies that:
// the same adapter runs against
//   (a) a pure sawtooth (backoffs only at the cap — the paper's implicit
//       fig-1 model),
//   (b) sawtooth + occasional double backoffs (scenario-2-like),
//   (c) Poisson mid-recovery backoffs (near-random Internet loss, §3),
//   (d) bursty Gilbert-Elliott-timed backoffs,
// and, on the full simulator, a RED vs drop-tail bottleneck (RED
// de-bursts the loss process).
AimdTrajectory sawtooth_with_doubles(double every_nth) {
  AimdTrajectory traj(4'000, 1'200);
  traj.set_rate_cap(9'000);
  double rate = 4'000, t = 0;
  int n = 0;
  while (t < 120) {
    const double t_hit = t + (9'000 - rate) / 1'200;
    if (t_hit >= 120) break;
    traj.add_backoff(t_hit);
    rate = 4'500;
    t = t_hit;
    if (every_nth > 0 && ++n % static_cast<int>(every_nth) == 0) {
      traj.add_backoff(t + 0.01);
      rate = 2'250;
    }
  }
  return traj;
}

AimdTrajectory gilbert_timed(Rng& rng) {
  // Backoff bursts: quiet stretches (exp mean 6 s) then 2-4 backoffs
  // spaced ~0.3 s apart.
  AimdTrajectory traj(4'000, 1'200);
  traj.set_rate_cap(9'000);
  double t = 0;
  while (t < 120) {
    t += rng.exponential(6.0);
    const int burst = 2 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < burst && t < 120; ++i) {
      traj.add_backoff(t);
      t += 0.3 + rng.uniform(0, 0.2);
    }
  }
  return traj;
}

void ext_loss() {
  bench::banner("Extension: loss-process sensitivity (trace-driven)");
  AdapterConfig cfg;
  cfg.consumption_rate = 1'250;
  cfg.max_layers = 8;
  cfg.kmax = 2;

  bench::TablePrinter t({"loss process", "drops", "poor_dist", "efficiency",
                         "changes", "stall_s"},
                        16);
  t.print_header();
  const auto row = [&](const char* name, const AimdTrajectory& traj) {
    RunSeries series;
    const TraceRunResult r = run_trace(traj, cfg, 120, 250,
                                       /*sample_dt_sec=*/0.1,
                                       /*keep_packet_log=*/false, &series);
    const Summary s = summarize(r.metrics, series, r.base_stall, 120);
    t.print_row({name, bench::fmt(s.drops, 0),
                 per_drop(s, s.poor_fraction, 0),
                 per_drop(s, s.efficiency, 2),
                 bench::fmt(s.quality_changes, 0), bench::fmt(s.stall_s, 2)});
  };
  row("sawtooth", sawtooth_with_doubles(0));
  row("saw+doubles", sawtooth_with_doubles(4));
  Rng r2(11);
  row("poisson",
      random_backoff_trajectory(4'000, 1'200, 9'000, 120, 2.5, r2));
  Rng r3(13);
  row("bursty(GE)", gilbert_timed(r3));

  bench::banner("Extension: RED vs drop-tail bottleneck (full simulator, T1)");
  bench::TablePrinter red_table({"bottleneck", "drops", "poor_dist",
                                 "efficiency", "changes", "stall_s", "meanQ"},
                                14);
  red_table.print_header();
  for (const bool red : {false, true}) {
    ExperimentParams p = ExperimentParams::t1(2);
    p.red_bottleneck = red;
    const Summary s = summarize(p);
    red_table.print_row(
        {red ? "RED" : "drop-tail", bench::fmt(s.drops, 0),
         per_drop(s, s.poor_fraction, 0), per_drop(s, s.efficiency, 2),
         bench::fmt(s.quality_changes, 0), bench::fmt(s.stall_s, 2),
         bench::fmt(s.mean_layers, 2)});
  }

  std::printf(
      "\nReading: a pure sawtooth (the paper's implicit model) produces ZERO\n"
      "drops; mid-recovery and bursty backoffs create deficits outside the\n"
      "scenario model and their drops classify as distribution-caused —\n"
      "the root of the Table-2 divergence (EXPERIMENTS.md). RED de-bursts\n"
      "the loss process (poor%% falls) but its random early losses hit the\n"
      "flow more often, trading smoothness for classification purity.\n");
}

// Extension: non-linear layer spacing (§7 future work).
//
// Generalizes the optimal inter-layer allocation to codecs whose base
// layer is thicker than the enhancements. Prints the per-layer optimal
// distributions for three encoding profiles at the same total consumption
// and the survivability difference for a fixed buffer budget.
void allocation_table(const char* name, const LayerProfile& profile,
                      double rate, double slope) {
  bench::banner(std::string("profile: ") + name);
  std::printf("layers:");
  for (int i = 0; i < profile.layers(); ++i) {
    std::printf(" %.1f", profile.rate(i) / 1000);
  }
  std::printf(" kB/s (total %.1f), rate before backoff %.1f kB/s\n\n",
              profile.total() / 1000, rate / 1000);

  bench::TablePrinter t({"k", "scenario", "total_B", "L0", "L1", "L2", "L3"},
                        10);
  t.print_header();
  for (int k = 1; k <= 3; ++k) {
    for (const Scenario s : {Scenario::kClustered, Scenario::kSpread}) {
      const double total = nl_total_required(s, k, rate, profile, slope);
      if (total <= 0) continue;
      std::vector<std::string> row = {
          bench::fmt(k, 0), s == Scenario::kClustered ? "S1" : "S2",
          bench::fmt(total, 0)};
      for (int layer = 0; layer < 4; ++layer) {
        row.push_back(layer < profile.layers()
                          ? bench::fmt(nl_layer_required(s, k, layer, rate,
                                                         profile, slope),
                                       0)
                          : "-");
      }
      t.print_row(row);
    }
  }
}

void ext_nonlinear() {
  const double slope = 2'000;   // bytes/s^2 (the headline T1 regime)
  const double rate = 9'000;    // pre-backoff rate

  // Three encodings of the same 5 kB/s total consumption.
  const std::vector<LayerProfile> profiles = {
      LayerProfile({1'250, 1'250, 1'250, 1'250}),
      LayerProfile({2'500, 1'250, 750, 500}),
      LayerProfile({2'667, 1'333, 667, 333}),
  };
  allocation_table("linear (4 x 1.25 kB/s)", profiles[0], rate, slope);
  allocation_table("fat base (2.5 / 1.25 / 0.75 / 0.5)", profiles[1], rate,
                   slope);
  allocation_table("geometric (2.67 / 1.33 / 0.67 / 0.33)", profiles[2],
                   rate, slope);

  bench::banner("Survivability of a 4 kB budget, rate collapse to 1 kB/s");
  bench::TablePrinter t({"profile", "ideal-split", "equal-split"}, 24);
  t.print_header();
  const char* names[] = {"linear", "fat base", "geometric"};
  for (size_t i = 0; i < profiles.size(); ++i) {
    const LayerProfile& p = profiles[i];
    const double h = p.total() - 1'000;
    std::vector<double> ideal(static_cast<size_t>(p.layers()));
    double scale_total = 0;
    for (int l = 0; l < p.layers(); ++l) {
      ideal[static_cast<size_t>(l)] = nl_band_share(h, l, p, slope);
      scale_total += ideal[static_cast<size_t>(l)];
    }
    // Scale the ideal profile to the fixed 4 kB budget.
    for (double& v : ideal) v *= 4'000 / std::max(scale_total, 1.0);
    std::vector<double> equal(static_cast<size_t>(p.layers()),
                              4'000.0 / p.layers());
    t.print_row({names[i],
                 nl_drain_feasible(1'000, p, ideal, slope) ? "survives"
                                                           : "drops",
                 nl_drain_feasible(1'000, p, equal, slope) ? "survives"
                                                           : "drops"});
  }
  std::printf(
      "\nReading: with non-linear spacing the same byte budget protects the\n"
      "stream only when distributed by the generalized bands — an equal\n"
      "split that survives under linear spacing drops layers under the fat-\n"
      "base and geometric encodings (the §7 extension the paper left open).\n");
}

// Extension study: TCP-friendliness of the quality-adaptive stream.
//
// The paper assumes RAP's TCP-friendliness and builds quality adaptation
// on top ("this paper is not about congestion control mechanisms"); this
// bench checks the assumption in our substrate and measures how the mix
// shifts when the QA layer runs on one of the RAP flows. Reports per-class
// goodput and Jain's fairness index for mixes of RAP and TCP flows, with
// and without the QA layer on the measured flow.
struct MixResult {
  double rap_mean_goodput = 0;
  double tcp_mean_goodput = 0;
  double jain_all = 0;
};

MixResult run_mix(int rap_flows, int tcp_flows, bool qa_on_first,
                  double duration = 60.0) {
  sim::Network net;
  sim::DumbbellParams topo;
  topo.pairs = rap_flows + tcp_flows;
  topo.bottleneck_bw = Rate::kilobits_per_sec(800);
  topo.rtt = TimeDelta::millis(40);
  topo.bottleneck_queue_bytes = 50'000;
  sim::Dumbbell d = sim::build_dumbbell(net, topo);

  Rng rng(5);
  std::vector<cc::AckSink*> rap_sinks;
  std::vector<tcp::TcpSink*> tcp_sinks;
  std::unique_ptr<Session> session;

  for (int i = 0; i < rap_flows; ++i) {
    if (i == 0 && qa_on_first) {
      SessionConfig cfg;
      cfg.adapter.max_layers = 8;
      cfg.adapter.consumption_rate = 1'250;
      cfg.cc.packet_size = 250;
      cfg.cc.initial_rate = Rate::bytes_per_sec(1'250);
      session = std::make_unique<Session>(net, d.left[0], d.right[0], cfg);
      rap_sinks.push_back(&session->ack_sink());
      continue;
    }
    cc::CcParams rp;
    rp.packet_size = 250;
    rp.initial_rate = Rate::bytes_per_sec(1'250);
    rp.start_time = TimePoint::from_sec(rng.uniform(0.0, 1.0));
    rap_sinks.push_back(
        add_flow<cc::RapSource, cc::AckSink>(net, d, i, rp).second);
  }
  for (int i = 0; i < tcp_flows; ++i) {
    tcp::TcpParams tp;
    tp.mss_bytes = 250;
    tp.start_time = TimePoint::from_sec(rng.uniform(0.0, 1.0));
    tcp_sinks.push_back(
        add_flow<tcp::TcpSource, tcp::TcpSink>(net, d, rap_flows + i, tp)
            .second);
  }

  net.run(TimePoint::from_sec(duration));

  std::vector<double> rap, tcp;
  for (auto* s : rap_sinks) {
    rap.push_back(static_cast<double>(s->bytes_received()) / duration);
  }
  for (auto* s : tcp_sinks) {
    tcp.push_back(static_cast<double>(s->cumulative_ack()) * 250.0 / duration);
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double g : v) sum += g;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  std::vector<double> all = rap;
  all.insert(all.end(), tcp.begin(), tcp.end());
  return {mean(rap), mean(tcp), jain_fairness(all)};
}

void ext_fairness() {
  bench::banner("Extension: inter-protocol fairness (800 Kb/s, 40 ms RTT)");
  bench::TablePrinter t({"mix", "rap_kBps", "tcp_kBps", "rap/tcp", "jain"},
                        14);
  t.print_header();
  struct Case {
    const char* name;
    int rap, tcp;
    bool qa;
  };
  const Case cases[] = {
      {"10 RAP/10 TCP", 10, 10, false},
      {"+QA on flow 0", 10, 10, true},
      {"4 RAP/4 TCP", 4, 4, false},
      {"16 RAP/4 TCP", 16, 4, false},
  };
  for (const Case& c : cases) {
    const MixResult r = run_mix(c.rap, c.tcp, c.qa);
    t.print_row({c.name, bench::fmt(r.rap_mean_goodput / 1000, 2),
                 bench::fmt(r.tcp_mean_goodput / 1000, 2),
                 bench::fmt(r.tcp_mean_goodput > 0
                                ? r.rap_mean_goodput / r.tcp_mean_goodput
                                : 0,
                            2),
                 bench::fmt(r.jain_all, 3)});
  }
  std::printf(
      "\nReading: RAP without fine-grain adaptation is somewhat more\n"
      "aggressive than TCP at sub-window operating points (known from the\n"
      "RAP paper); adding the QA layer on flow 0 raises the mean RAP\n"
      "goodput and the RAP/TCP ratio (first two rows), so in this mix\n"
      "switching QA on does not leave the RAP share unchanged.\n");
}

struct Section {
  const char* name;
  void (*body)();
};

// Paper order: the order `qa_paper` with no argument runs them in.
constexpr Section kSections[] = {
    {"fig01", fig01},       {"fig02", fig02},
    {"fig03_05", fig03_05}, {"fig06", fig06},
    {"fig07", fig07},       {"fig08_10", fig08_10},
    {"fig11", fig11},       {"fig12", fig12},
    {"fig13", fig13},       {"table1", table1},
    {"table2", table2},     {"ablation", ablation},
    {"ext_loss", ext_loss}, {"ext_nonlinear", ext_nonlinear},
    {"ext_fairness", ext_fairness},
};

void usage() {
  std::fprintf(stderr, "usage: qa_paper [SECTION...]\n  sections:");
  for (const Section& s : kSections) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n  (no SECTION: run every section)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  exit_on_unknown_flags(flags, usage);

  std::vector<std::string> names;
  for (const Section& s : kSections) names.push_back(s.name);
  const std::vector<std::string> chosen =
      flags.positional().empty() ? names : flags.positional();
  for (const std::string& name : chosen) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      std::fprintf(stderr, "%s\n",
                   invalid_choice("section", name, names).c_str());
      return kUsageExitStatus;
    }
  }
  for (const std::string& name : chosen) {
    kSections[std::find(names.begin(), names.end(), name) - names.begin()]
        .body();
  }
  return 0;
}
