// E12 — batch fault-simulation throughput: the PR-1 reference CLS loop
// (cls_fault_simulate: one full packed pass over the whole test set per
// fault) vs the multi-threaded engine behind fault_simulate (shared good
// responses, word-at-a-time early exit, fault dropping).
//
// Besides the console table, the report writes BENCH_fault.json (the
// shared row schema, bench_util.hpp) recording baseline-vs-engine fault
// throughput, gated on a positive speedup per workload; the binary
// cross-checks that both sides report the identical detected-fault set
// before writing. RTV_BENCH_SMOKE=1 shrinks every workload so CI can run
// the report in seconds.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "util/rng.hpp"

namespace rtv {

namespace {

/// Mostly-combinational random netlist: few latches keeps CLS coverage high,
/// which is the realistic regime for early exit (most faults are caught by
/// an early word of the test set).
Netlist workload(unsigned gates, std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 12;
  opt.num_outputs = 12;
  opt.num_gates = gates;
  opt.num_latches = gates / 64;
  opt.latch_after_gate_probability = 0.02;
  return random_netlist(opt, rng);
}

std::vector<BitsSeq> make_tests(const Netlist& n, unsigned count,
                                unsigned cycles, Rng& rng) {
  std::vector<BitsSeq> tests(count);
  for (BitsSeq& test : tests) {
    test.reserve(cycles);
    for (unsigned t = 0; t < cycles; ++t) {
      Bits in(n.primary_inputs().size());
      for (auto& v : in) v = rng.coin();
      test.push_back(std::move(in));
    }
  }
  return tests;
}

struct Row {
  std::string name;
  std::size_t gates = 0;
  std::size_t faults = 0;
  unsigned tests = 0;
  unsigned cycles = 0;
  double coverage = 0.0;
  double baseline_fps = 0.0;  ///< faults per second, cls_fault_simulate
  double engine_fps = 0.0;    ///< faults per second, FaultSimEngine kCls
  double speedup = 0.0;
};

Row measure(const std::string& name, const Netlist& n, unsigned num_tests,
            unsigned cycles) {
  Rng rng(0xE12u);
  const std::vector<Fault> faults = collapse_faults(n);
  const std::vector<BitsSeq> tests = make_tests(n, num_tests, cycles, rng);

  const auto t0 = std::chrono::steady_clock::now();
  const FaultSimResult base = cls_fault_simulate(n, faults, tests);
  const double baseline_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  FaultSimOptions options;
  options.mode = FaultSimMode::kCls;
  options.threads = 0;  // all hardware threads
  options.drop_detected = true;
  const FaultSimResult r = fault_simulate(n, faults, tests, options);

  bench::check(r.detected == base.detected,
               "engine and baseline disagree on the detected-fault set for "
               "workload " + name);

  Row row;
  row.name = name;
  row.gates = n.num_gates();
  row.faults = faults.size();
  row.tests = num_tests;
  row.cycles = cycles;
  row.coverage = r.coverage;
  row.baseline_fps = static_cast<double>(faults.size()) / baseline_s;
  row.engine_fps = static_cast<double>(faults.size()) / r.wall_seconds;
  row.speedup = row.engine_fps / row.baseline_fps;
  return row;
}

}  // namespace

void report() {
  bench::heading("E12 / fault sim",
                 "CLS faults per second: reference full-pass loop vs the "
                 "early-exit fault-dropping engine");
  const bool smoke = bench::smoke_mode();
  const unsigned tests = smoke ? 96 : 512;
  const unsigned cycles = smoke ? 4 : 12;

  bench::Report report("fault_throughput");
  std::vector<Row> rows;
  const auto run = [&](const std::string& name, const Netlist& n) {
    report.gate({name, "fault", "speedup"}, bench::Gate::above(0.0));
    rows.push_back(measure(name, n, tests, cycles));
  };
  run("random512", workload(512, 42));
  if (!smoke) {
    run("random2048", workload(2048, 42));
    run("ctrl_datapath64", controller_datapath(64));
  }

  std::printf("%-16s %-8s %-8s %-10s %-14s %-14s %-8s\n", "workload", "gates",
              "faults", "coverage", "base flt/s", "engine flt/s", "speedup");
  for (const Row& r : rows) {
    std::printf("%-16s %-8zu %-8zu %-10.2f %-14.3g %-14.3g %-8.1f\n",
                r.name.c_str(), r.gates, r.faults, r.coverage, r.baseline_fps,
                r.engine_fps, r.speedup);
  }
  std::printf("(%u tests x %u cycles per workload, random binary inputs, "
              "collapsed fault list;\nboth sides verified to report the "
              "identical detected-fault set)\n",
              tests, cycles);
  for (const Row& r : rows) {
    report.add({r.name, "fault", "gates"}, static_cast<double>(r.gates),
               "count");
    report.add({r.name, "fault", "faults"}, static_cast<double>(r.faults),
               "count");
    report.add({r.name, "fault", "tests"}, r.tests, "count");
    report.add({r.name, "fault", "cycles"}, r.cycles, "count");
    report.add({r.name, "fault", "coverage"}, r.coverage, "share");
    report.add({r.name, "fault", "baseline_faults_per_sec"}, r.baseline_fps,
               "1/s");
    report.add({r.name, "fault", "engine_faults_per_sec"}, r.engine_fps,
               "1/s");
    report.add({r.name, "fault", "speedup"}, r.speedup, "x");
  }
  report.emit("BENCH_fault.json");
}

namespace {

void BM_EngineCls(benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 42);
  const std::vector<Fault> faults = collapse_faults(n);
  Rng rng(0xE12u);
  const std::vector<BitsSeq> tests = make_tests(n, 128, 8, rng);
  FaultSimOptions options;
  options.mode = FaultSimMode::kCls;
  options.threads = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault_simulate(n, faults, tests, options));
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(faults.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EngineCls)->Arg(256)->Arg(1024);

void BM_BaselineCls(benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 42);
  const std::vector<Fault> faults = collapse_faults(n);
  Rng rng(0xE12u);
  const std::vector<BitsSeq> tests = make_tests(n, 128, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cls_fault_simulate(n, faults, tests));
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(faults.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BaselineCls)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
