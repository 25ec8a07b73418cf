// Lint scaling — the ternary dataflow fixpoint on 10^4..10^5-gate random
// netlists. The header comment of src/analysis/dataflow.hpp promises
// near-linear convergence: monotone transfer functions over a height-3
// lattice mean every port can grow at most 3 times, so worklist effort is
// bounded by fanout-weighted updates, not by iteration-to-quiescence.
//
// BENCH_lint.json (the shared row schema, bench_util.hpp) records per-size
// timings and convergence statistics and gates the contract: per size,
// updates <= 3 * ports (the lattice-height bound, exact and deterministic),
// at least two sizes, and end-to-end the largest/smallest lint time ratio
// must stay within kLinearSlack times the port-count ratio — a quadratic
// engine would blow that bound by an order of magnitude at the 10x size
// spread measured here. RTV_BENCH_SMOKE=1 shrinks the sizes (same 10x
// spread) so CI can run the report in seconds.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "bench_util.hpp"
#include "gen/random_circuits.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

/// Largest-over-smallest lint time may exceed the port-count ratio by at
/// most this factor. Linear engines sit near 1; a quadratic one would show
/// ~10x the port ratio at the 10x size spread and fail loudly.
constexpr double kLinearSlack = 4.0;

/// Additive damping (ms) so sub-millisecond smoke timings cannot produce a
/// flaky ratio; irrelevant against any genuine super-linear blowup.
constexpr double kNoiseFloorMs = 1.0;

struct Row {
  unsigned gates = 0;
  std::size_t ports = 0;
  double dataflow_ms = 0.0;   ///< run_dataflow alone
  double lint_ms = 0.0;       ///< full run_lint (structural + semantic)
  std::size_t iterations = 0;
  std::size_t updates = 0;
  std::size_t table_fallbacks = 0;
};

Netlist workload(unsigned gates, std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 16;
  opt.num_outputs = 8;
  opt.num_gates = gates;
  opt.num_latches = gates / 8;
  opt.table_probability = 0.05;
  opt.latch_after_gate_probability = 0.05;
  return random_netlist(opt, rng);
}

Row measure(unsigned gates) {
  Row row;
  row.gates = gates;
  const Netlist n = workload(gates, 0xD5);

  const auto t0 = std::chrono::steady_clock::now();
  const DataflowResult df = run_dataflow(n);
  row.dataflow_ms = bench::ms_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  const LintResult lint = run_lint(n);
  row.lint_ms = bench::ms_since(t1);

  const DataflowStats& stats =
      lint.dataflow_stats.has_value() ? *lint.dataflow_stats : df.stats();
  row.ports = stats.num_ports;
  row.iterations = stats.iterations;
  row.updates = stats.updates;
  row.table_fallbacks = stats.table_fallbacks;
  return row;
}

std::vector<Row> run_report(bool smoke) {
  const std::vector<unsigned> sizes =
      smoke ? std::vector<unsigned>{1'000, 3'000, 10'000}
            : std::vector<unsigned>{10'000, 30'000, 100'000};
  std::vector<Row> rows;
  rows.reserve(sizes.size());
  for (unsigned gates : sizes) rows.push_back(measure(gates));
  return rows;
}


void bm_dataflow(::benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 0xD5);
  for (auto _ : state) {
    const DataflowResult df = run_dataflow(n);
    ::benchmark::DoNotOptimize(df.stats().updates);
  }
}
BENCHMARK(bm_dataflow)->Arg(10'000)->Arg(100'000)
    ->Unit(::benchmark::kMillisecond);

void bm_lint(::benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 0xD5);
  for (auto _ : state) {
    const LintResult lint = run_lint(n);
    ::benchmark::DoNotOptimize(lint.diagnostics.size());
  }
}
BENCHMARK(bm_lint)->Arg(10'000)->Arg(100'000)
    ->Unit(::benchmark::kMillisecond);

}  // namespace

void report() {
  bench::heading("lint scaling / ternary dataflow fixpoint",
                 "run_dataflow and full run_lint on 10^4..10^5-gate random "
                 "netlists; updates <= 3 * ports and near-linear time");
  bench::Report report("lint_scale");
  report.gate({"all", "analysis", "sizes"}, bench::Gate::min(2.0));
  const std::vector<Row> rows = run_report(bench::smoke_mode());

  std::printf("%-10s %-10s %-12s %-12s %-12s %-10s %-10s\n", "gates",
              "ports", "dataflow ms", "lint ms", "iterations", "updates",
              "upd/port");
  for (const Row& r : rows) {
    std::printf("%-10u %-10zu %-12.2f %-12.2f %-12zu %-10zu %-10.3f\n",
                r.gates, r.ports, r.dataflow_ms, r.lint_ms, r.iterations,
                r.updates,
                static_cast<double>(r.updates) /
                    static_cast<double>(r.ports));
    const std::string w = "random" + std::to_string(r.gates);
    // The lattice-height bound: every port grows at most 3 times.
    report.gate({w, "analysis", "updates"},
                bench::Gate::max(3.0 * static_cast<double>(r.ports)));
    report.add({w, "analysis", "ports"}, static_cast<double>(r.ports),
               "count");
    report.add({w, "analysis", "dataflow_ms"}, r.dataflow_ms, "ms");
    report.add({w, "analysis", "lint_ms"}, r.lint_ms, "ms");
    report.add({w, "analysis", "iterations"},
               static_cast<double>(r.iterations), "count");
    report.add({w, "analysis", "updates"}, static_cast<double>(r.updates),
               "count");
    report.add({w, "analysis", "table_fallbacks"},
               static_cast<double>(r.table_fallbacks), "count");
  }

  // time(L)/time(S) <= kLinearSlack * ports(L)/ports(S), noise-damped.
  const double time_ratio = (rows.back().lint_ms + kNoiseFloorMs) /
                            (rows.front().lint_ms + kNoiseFloorMs);
  const double port_ratio = static_cast<double>(rows.back().ports) /
                            static_cast<double>(rows.front().ports);
  std::printf("largest/smallest: lint time %.2fx over %.2fx the ports "
              "(slack %.1fx)\n",
              time_ratio, port_ratio, kLinearSlack);
  report.gate({"all", "analysis", "time_ratio"},
              bench::Gate::max(kLinearSlack * port_ratio));
  report.add({"all", "analysis", "sizes"}, static_cast<double>(rows.size()),
             "count");
  report.add({"all", "analysis", "time_ratio"}, time_ratio, "x");
  report.add({"all", "analysis", "port_ratio"}, port_ratio, "x");
  report.emit("BENCH_lint.json");
}

}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
