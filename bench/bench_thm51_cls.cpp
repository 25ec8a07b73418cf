// E9 — Theorem 5.1 / Corollary 5.3 (the paper's main result): conservative
// three-valued simulation cannot distinguish a retimed circuit from the
// original. Sweep: random circuits x random legal retimings, CLS
// equivalence checked exhaustively (pair reachability) where feasible.

#include <cstdio>

#include "bench_util.hpp"
#include "core/cls_equiv.hpp"
#include "core/safety.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "sim/cls_sim.hpp"
#include "util/rng.hpp"

namespace rtv {

namespace {

std::vector<int> random_legal_lag(const RetimeGraph& g, Rng& rng,
                                  int attempts) {
  std::vector<int> lag(g.num_vertices(), 0);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::vector<int> probe = lag;
    const std::uint32_t v =
        2 + static_cast<std::uint32_t>(rng.below(g.num_vertices() - 2));
    probe[v] += rng.coin() ? 1 : -1;
    if (g.legal_retiming(probe)) lag = probe;
  }
  return lag;
}

}  // namespace

void report() {
  bench::heading("E9 / Thm 5.1, Cor 5.3",
                 "CLS output invariance under retiming");
  // The paper pair first.
  {
    const auto r =
        check_cls_equivalence(figure1_original(), figure1_retimed());
    std::printf("figure-1 pair: %s\n\n", r.summary().c_str());
  }

  std::printf("%-14s %-8s %-12s %-12s %-14s\n", "retiming", "trials",
              "equivalent", "exhaustive", "state pairs");
  Rng rng(31415);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_outputs = 2;
  opt.num_gates = 14;
  opt.num_latches = 4;
  opt.latch_after_gate_probability = 0.3;

  for (const char* policy : {"random walk", "min-area", "min-period"}) {
    int trials = 0, equivalent = 0, exhaustive = 0;
    std::size_t pairs = 0;
    for (int t = 0; t < 12; ++t) {
      const Netlist n = random_netlist(opt, rng);
      const RetimeGraph g = RetimeGraph::from_netlist(n);
      std::vector<int> lag;
      if (policy[0] == 'r') {
        lag = random_legal_lag(g, rng, 30);
      } else if (policy[4] == 'a') {
        lag = min_area_retime(g).lag;
      } else {
        lag = min_period_retime_feas(g).lag;
      }
      SequencedRetiming seq;
      analyze_lag_retiming(n, g, lag, &seq);
      const auto r = check_cls_equivalence(n, seq.retimed);
      ++trials;
      equivalent += r.equivalent;
      exhaustive += r.exhaustive;
      pairs += r.pairs_explored;
    }
    std::printf("%-14s %-8d %3d/%-8d %3d/%-8d %-14zu\n", policy, trials,
                equivalent, trials, exhaustive, trials, pairs);
  }
  std::printf("\n(paper: equivalent must be 100%% in every row)\n");
}

namespace {

void BM_ClsEquivalenceExhaustive(benchmark::State& state) {
  const Netlist d = figure1_original();
  const Netlist c = figure1_retimed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_cls_equivalence(d, c));
  }
}
BENCHMARK(BM_ClsEquivalenceExhaustive);

void BM_ClsSimulatorStep(benchmark::State& state) {
  Rng rng(5);
  RandomCircuitOptions opt;
  opt.num_gates = static_cast<unsigned>(state.range(0));
  opt.num_latches = opt.num_gates / 4;
  opt.num_inputs = 4;
  const Netlist n = random_netlist(opt, rng);
  ClsSimulator sim(n);
  const Trits in(n.primary_inputs().size(), Trit::kX);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(in));
  }
  state.counters["gates"] = static_cast<double>(n.num_gates());
}
BENCHMARK(BM_ClsSimulatorStep)->Arg(64)->Arg(512)->Arg(4096);

void BM_ValidateRetimingFull(benchmark::State& state) {
  Rng rng(17);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_gates = 14;
  opt.num_latches = 4;
  const Netlist n = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const auto lag = min_area_retime(g).lag;
  SequencedRetiming seq;
  analyze_lag_retiming(n, g, lag, &seq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_cls_equivalence(n, seq.retimed));
  }
}
BENCHMARK(BM_ValidateRetimingFull);

/// The explicit engine's exhaustive pair BFS on `n` against its min-area
/// retiming (the query `rtv validate` makes when no static proof applies).
void pair_bfs_against_min_area(benchmark::State& state, const Netlist& n) {
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  SequencedRetiming seq;
  analyze_lag_retiming(n, g, min_area_retime(g).lag, &seq);
  ClsEquivalenceResult r;
  for (auto _ : state) {
    r = check_cls_equivalence(n, seq.retimed);
    benchmark::DoNotOptimize(r);
  }
  state.counters["pairs"] = static_cast<double>(r.pairs_explored);
  state.counters["proven"] = r.verdict == Verdict::kProven ? 1 : 0;
}

void BM_PairBfsShift8MinArea(benchmark::State& state) {
  pair_bfs_against_min_area(state, shift_register(8));
}
BENCHMARK(BM_PairBfsShift8MinArea)->Unit(benchmark::kMillisecond);

void BM_PairBfsRandom90MinArea(benchmark::State& state) {
  // The verdict benchmark's rand90_s1 design: 90 primitive gates, 8
  // leading latches, seed 1.
  RandomCircuitOptions opt;
  opt.num_gates = 90;
  opt.num_latches = 8;
  Rng rng(1);
  pair_bfs_against_min_area(state, random_netlist(opt, rng));
}
BENCHMARK(BM_PairBfsRandom90MinArea)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
