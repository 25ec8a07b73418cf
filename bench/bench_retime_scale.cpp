// E10 — substrate scale (the [SR94] context the paper cites: retiming at
// tens of thousands of gates). Min-period and min-area retiming on
// generated pipelined multipliers and random netlists of growing size, and
// min-area at the minimum period ([SR94]'s objective) on every row.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rtv {

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void scale_row(const char* name, const Netlist& n) {
  const auto t0 = std::chrono::steady_clock::now();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const double t_graph = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  const RetimingSolution period = min_period_retime_feas(g);
  const double t_period = seconds_since(t1);

  const auto t2 = std::chrono::steady_clock::now();
  const MinAreaResult area = min_area_retime(g);
  const double t_area = seconds_since(t2);

  // The [SR94] objective: fewest registers at the minimum period.
  const auto t3 = std::chrono::steady_clock::now();
  const auto both = min_area_retime_with_period(g, period.period);
  const double t_both = seconds_since(t3);
  RTV_CHECK_MSG(both.has_value(), "the minimum period must be feasible");

  std::printf(
      "%-22s %8zu %8zu %6d->%-6d %6lld->%-6lld %8lld %8.3f %8.3f %8.3f "
      "%8.3f\n",
      name, n.num_gates(), n.num_latches(), g.clock_period(), period.period,
      static_cast<long long>(area.registers_before),
      static_cast<long long>(area.registers_after),
      static_cast<long long>(both->registers_after), t_graph, t_period, t_area,
      t_both);
}

Netlist big_random(unsigned gates, std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 16;
  opt.num_outputs = 16;
  opt.num_gates = gates;
  opt.num_latches = gates / 8;
  opt.latch_after_gate_probability = 0.25;
  return random_netlist(opt, rng);
}

}  // namespace

void report() {
  bench::heading("E10 / [SR94] scale",
                 "min-period (FEAS-style), min-area, and min-area at the "
                 "min period vs size");
  std::printf("%-22s %8s %8s %-14s %-14s %8s %8s %8s %8s %8s\n", "workload",
              "gates", "latches", "period", "registers", "regs@per", "t_graph",
              "t_per", "t_area", "t_both");
  scale_row("mult 8b, 2 rows/stg", pipelined_multiplier(8, 2));
  scale_row("mult 16b, 4 rows/stg", pipelined_multiplier(16, 4));
  scale_row("mult 32b, 8 rows/stg", pipelined_multiplier(32, 8));
  scale_row("random 5k", big_random(5000, 1));
  scale_row("random 20k", big_random(20000, 2));
  scale_row("random 50k", big_random(50000, 3));
  std::printf("\n(times in seconds; [SR94] reports 50k-gate circuits as the\n"
              "practical frontier of 1994 — shape target: near-linear graph\n"
              "construction, super-linear but tractable optimization)\n");
}

namespace {

void BM_GraphConstruction(benchmark::State& state) {
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RetimeGraph::from_netlist(n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphConstruction)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity();

void BM_MinPeriodFeas(benchmark::State& state) {
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 10);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_period_retime_feas(g));
  }
}
BENCHMARK(BM_MinPeriodFeas)->Arg(1000)->Arg(4000);

void BM_MinArea(benchmark::State& state) {
  const Netlist n = big_random(static_cast<unsigned>(state.range(0)), 11);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_area_retime(g));
  }
}
BENCHMARK(BM_MinArea)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
