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
#include <cstdio>

#include "bench_util.h"
#include "core/state_sequence.h"
#include "util/csv.h"

using namespace qa;
using namespace qa::core;

namespace {

constexpr double kRate = 90'000;  // filling-phase rate the states assume
constexpr int kLayers = 5;
const AimdModel kModel{10'000.0, 20'000.0};

void print_states(const char* title, std::span<const BufferState> states,
                  bool adjusted) {
  bench::banner(title);
  std::vector<std::string> headers = {"scenario", "k", "total_B"};
  for (int i = 0; i < kLayers; ++i) headers.push_back("L" + std::to_string(i));
  bench::TablePrinter t(headers, 10);
  t.print_header();
  for (const BufferState& st : states) {
    std::vector<std::string> row = {
        st.scenario == Scenario::kClustered ? "S1" : "S2",
        bench::fmt(st.k, 0), bench::fmt(st.total, 0)};
    const auto& targets = adjusted ? st.adjusted_targets : st.raw_targets;
    for (double v : targets) row.push_back(bench::fmt(v, 0));
    t.print_row(row);
  }
}

}  // namespace

int main() {
  std::printf("Buffer states for R = %.0f kB/s, C = %.0f kB/s, S = %.0f "
              "kB/s^2, %d layers\n",
              kRate / 1000, kModel.consumption_rate / 1000,
              kModel.slope / 1000, kLayers);

  // Fig 8: raw distributions grouped by k (natural order).
  {
    StateSequence seq(kRate, kLayers, kModel, 5, /*monotone=*/false);
    std::vector<BufferState> states(seq.states().begin(), seq.states().end());
    std::sort(states.begin(), states.end(),
              [](const BufferState& a, const BufferState& b) {
                if (a.k != b.k) return a.k < b.k;
                return static_cast<int>(a.scenario) <
                       static_cast<int>(b.scenario);
              });
    print_states("Figure 8: optimal distributions by k (raw)", states,
                 /*adjusted=*/false);
  }

  // Fig 9: ordered by total; flag the monotonicity violations.
  {
    StateSequence seq(kRate, kLayers, kModel, 5, /*monotone=*/false);
    print_states("Figure 9: states ordered by total buffering (raw)",
                 seq.states(), /*adjusted=*/false);
    int violations = 0;
    std::vector<double> prev(kLayers, 0.0);
    for (const BufferState& st : seq.states()) {
      for (int i = 0; i < kLayers; ++i) {
        if (st.raw_targets[static_cast<size_t>(i)] <
            prev[static_cast<size_t>(i)] - 1e-6) {
          ++violations;
        }
      }
      prev = st.raw_targets;
    }
    std::printf("\nPer-layer monotonicity violations in the raw order: %d "
                "(the fig-9 problem —\nreaching some states would require "
                "draining a layer mid-fill).\n",
                violations);
  }

  // Fig 10: the constrained sequence.
  {
    StateSequence seq(kRate, kLayers, kModel, 5, /*monotone=*/true);
    print_states(
        "Figure 10: maximally efficient step sequence (fig-10 constraint)",
        seq.states(), /*adjusted=*/true);
    int violations = 0;
    std::vector<double> prev(kLayers, 0.0);
    for (const BufferState& st : seq.states()) {
      for (int i = 0; i < kLayers; ++i) {
        if (st.adjusted_targets[static_cast<size_t>(i)] <
            prev[static_cast<size_t>(i)] - 1e-6) {
          ++violations;
        }
      }
      prev = st.adjusted_targets;
    }
    std::printf("\nViolations after the constraint: %d (expected 0 — every "
                "layer's target grows\nmonotonically along the path, so "
                "filling never has to drain a buffer).\n",
                violations);

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
  return 0;
}
