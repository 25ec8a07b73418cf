// E8 — Theorem 4.6: test sets for D remain test sets for C^k. Fault
// coverage of a fixed random test set on pipelined datapaths, before
// retiming, after retiming (same tests), and after retiming with k warm-up
// cycles — the middle column may drop, the right column may not.

#include <cstdio>

#include "bench_util.hpp"
#include "core/safety.hpp"
#include "core/test_preserve.hpp"
#include "fault/fault_sim.hpp"
#include "fault/tpg.hpp"
#include "gen/datapath.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "util/rng.hpp"

namespace rtv {

namespace {

struct CoverageRow {
  std::size_t faults = 0;
  std::size_t detected_original = 0;
  std::size_t detected_retimed = 0;
  std::size_t detected_delayed = 0;
  bool theorem_holds = true;
  unsigned k = 0;
};

CoverageRow run_case(const Netlist& original, std::uint64_t seed) {
  Rng rng(seed);
  const RetimeGraph g = RetimeGraph::from_netlist(original);
  const MinAreaResult area = min_area_retime(g);
  SequencedRetiming seq;
  analyze_lag_retiming(original, g, area.lag, &seq);

  CoverageRow row;
  row.k = static_cast<unsigned>(seq.stats.forward_moves);

  std::vector<BitsSeq> tests;
  for (int t = 0; t < 6; ++t) {
    BitsSeq test;
    Bits in(original.primary_inputs().size());
    for (auto& v : in) v = rng.coin();
    for (int step = 0; step < 8; ++step) test.push_back(in);
    tests.push_back(test);
  }

  // Every third collapsed fault on a combinational net that survives in C,
  // graded against all tests at once: D, C, then C^k.
  const auto collapsed = collapse_faults(original);
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < collapsed.size(); i += 3) {
    const Fault& f = collapsed[i];
    if (!is_combinational(original.kind(f.site.node))) continue;
    if (seq.retimed.sinks(f.site).empty()) continue;
    faults.push_back(f);
  }
  const TestSet on_d = grade_tests(original, faults, tests, 0);
  const TestSet on_c = grade_tests(seq.retimed, faults, tests, 0);
  const TestSet on_ck = grade_tests(seq.retimed, faults, tests, row.k);
  row.faults = faults.size();
  row.detected_original = on_d.num_detected;
  row.detected_retimed = on_c.num_detected;
  row.detected_delayed = on_ck.num_detected;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (on_d.detected[i] && !on_ck.detected[i]) row.theorem_holds = false;
  }
  return row;
}

}  // namespace

void report() {
  bench::heading("E8 / Thm 4.6",
                 "fault coverage: D vs retimed C vs delayed C^k");
  std::printf("%-22s %-8s %-4s %-10s %-12s %-12s %-10s\n", "workload",
              "faults", "k", "cov(D)", "cov(C)", "cov(C^k)", "Thm 4.6");
  const struct {
    const char* name;
    Netlist netlist;
  } cases[] = {
      {"adder 2b x 2 stages", pipelined_adder(2, 2)},
      {"adder 3b x 2 stages", pipelined_adder(3, 2)},
      {"adder 4b x 3 stages", pipelined_adder(4, 3)},
  };
  for (const auto& c : cases) {
    const CoverageRow row = run_case(c.netlist, 99);
    std::printf("%-22s %-8zu %-4u %3zu/%-6zu %3zu/%-8zu %3zu/%-8zu %-10s\n",
                c.name, row.faults, row.k, row.detected_original, row.faults,
                row.detected_retimed, row.faults, row.detected_delayed,
                row.faults, row.theorem_holds ? "holds" : "VIOLATED");
  }
  std::printf("\n(paper: cov(C) may drop below cov(D); cov(C^k) >= cov(D))\n");

  // The same story with a *generated* test set (random-search ATPG with
  // fault dropping) instead of fixed random tests.
  {
    const Netlist d = pipelined_adder(3, 2);
    const TestSet on_d = generate_tests(d);
    const RetimeGraph g = RetimeGraph::from_netlist(d);
    SequencedRetiming seq;
    analyze_lag_retiming(d, g, min_area_retime(g).lag, &seq);
    const unsigned k = static_cast<unsigned>(seq.stats.forward_moves);
    const TestSet on_c = grade_tests(seq.retimed, on_d.faults, on_d.tests, 0);
    const TestSet on_ck = grade_tests(seq.retimed, on_d.faults, on_d.tests, k);
    // Thm 4.6 speaks about nets that exist in both designs; faults on
    // latch output nets consumed by the retiming have no identity in C.
    std::size_t floor_common = 0, common = 0;
    for (std::size_t i = 0; i < on_d.faults.size(); ++i) {
      const Fault& f = on_d.faults[i];
      const bool alive = !seq.retimed.is_dead(f.site.node) &&
                         !seq.retimed.sinks(f.site).empty();
      if (!alive) continue;
      ++common;
      floor_common += on_d.detected[i];
    }
    std::printf("\nATPG on adder 3b x 2 stages (min-area retiming, k = %u):\n",
                k);
    std::printf("  generated for D:  %s\n", on_d.summary().c_str());
    std::printf("  graded on C:      %s\n", on_c.summary().c_str());
    std::printf("  graded on C^k:    %s\n", on_ck.summary().c_str());
    std::printf("  common nets: %zu, Thm 4.6 floor there: %zu, met: %s\n",
                common, floor_common,
                on_ck.num_detected >= floor_common ? "yes" : "NO");
  }
}

namespace {

void BM_CoverageCase(benchmark::State& state) {
  const Netlist n = pipelined_adder(2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_case(n, 5));
  }
}
BENCHMARK(BM_CoverageCase);

void BM_ExactFaultSim(benchmark::State& state) {
  const Netlist n = pipelined_adder(3, 2);
  const auto faults = collapse_faults(n);
  Rng rng(1);
  BitsSeq test;
  Bits in(n.primary_inputs().size());
  for (auto& v : in) v = rng.coin();
  for (int t = 0; t < 8; ++t) test.push_back(in);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(test_detects(n, faults[i % faults.size()], test));
    ++i;
  }
}
BENCHMARK(BM_ExactFaultSim);

void BM_SampledFaultSim(benchmark::State& state) {
  const Netlist n = pipelined_adder(4, 3);
  const auto faults = collapse_faults(n);
  Rng rng(1);
  BitsSeq test;
  Bits in(n.primary_inputs().size());
  for (auto& v : in) v = rng.coin();
  for (int t = 0; t < 8; ++t) test.push_back(in);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampled_test_detects(
        n, faults[i % faults.size()], test, 256, rng));
    ++i;
  }
}
BENCHMARK(BM_SampledFaultSim);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
