// E11 — simulator substrate throughput: 2-valued vs 64-way bit-parallel
// (the packed ternary engine on definite lanes) vs conservative 3-valued
// (CLS, scalar and packed) vs exact 3-valued.
//
// Besides the console tables, the report writes BENCH_sim.json (the
// shared row schema, bench_util.hpp) recording scalar-vs-packed CLS
// pattern throughput, gated on a positive speedup per workload, and the
// packed STG sweep's row-keyed minimized extraction against the quotient
// of the raw machine, gated on identical quotient tables;
// docs/performance.md documents the methodology. RTV_BENCH_SMOKE=1
// shrinks every workload so CI can run the report in seconds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "sim/binary_sim.hpp"
#include "sim/cls_sim.hpp"
#include "sim/exact_sim.hpp"
#include "sim/packed_sim.hpp"
#include "stg/stg.hpp"
#include "util/rng.hpp"

namespace rtv {

namespace {

Netlist workload(unsigned gates, std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 8;
  opt.num_outputs = 8;
  opt.num_gates = gates;
  opt.num_latches = gates / 8;
  opt.latch_after_gate_probability = 0.25;
  return random_netlist(opt, rng);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- E11b: scalar vs packed CLS pattern throughput ------------------------

struct PackedRow {
  std::string name;
  std::size_t gates = 0;
  std::size_t latches = 0;
  unsigned patterns = 0;
  unsigned cycles = 0;
  double scalar_pps = 0.0;  ///< pattern-cycles per second, scalar ClsSimulator
  double packed_pps = 0.0;  ///< pattern-cycles per second, packed engine
  double speedup = 0.0;
};

/// Random ternary test set: `patterns` sequences of `cycles` input vectors.
std::vector<TritsSeq> make_patterns(const Netlist& n, unsigned patterns,
                                    unsigned cycles, Rng& rng) {
  std::vector<TritsSeq> tests(patterns);
  for (TritsSeq& seq : tests) {
    seq.reserve(cycles);
    for (unsigned t = 0; t < cycles; ++t) {
      Trits in(n.primary_inputs().size());
      for (Trit& v : in) v = static_cast<Trit>(rng.below(3));
      seq.push_back(std::move(in));
    }
  }
  return tests;
}

PackedRow measure_packed_vs_scalar(const std::string& name, const Netlist& n,
                                   unsigned patterns, unsigned cycles) {
  Rng rng(0xE11Bu);
  const std::vector<TritsSeq> tests = make_patterns(n, patterns, cycles, rng);
  const double work = static_cast<double>(patterns) * cycles;

  ClsSimulator scalar(n);
  auto t0 = std::chrono::steady_clock::now();
  for (const TritsSeq& test : tests) {
    scalar.reset_to_all_x();
    benchmark::DoNotOptimize(scalar.run(test));
  }
  const double scalar_s = seconds_since(t0);

  // The packed side delivers the same response data in PackedResponses'
  // flat storage (its native result form); materializing one nested vector
  // per lane-cycle would time the allocator, not the simulator.
  t0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(packed_cls_responses(n, tests));
  const double packed_s = seconds_since(t0);

  PackedRow row;
  row.name = name;
  row.gates = n.num_gates();
  row.latches = n.num_latches();
  row.patterns = patterns;
  row.cycles = cycles;
  row.scalar_pps = work / scalar_s;
  row.packed_pps = work / packed_s;
  row.speedup = row.packed_pps / row.scalar_pps;
  return row;
}

void report_packed(bench::Report* report) {
  bench::heading("E11b / packed CLS",
                 "pattern-cycles per second: scalar ClsSimulator vs the "
                 "64-lane packed ternary engine");
  const bool smoke = bench::smoke_mode();
  const unsigned patterns = smoke ? 64 : 256;
  const unsigned cycles = smoke ? 4 : 64;

  std::vector<PackedRow> rows;
  const auto measure = [&](const std::string& name, const Netlist& n) {
    report->gate({name, "sim", "speedup"}, bench::Gate::above(0.0));
    rows.push_back(measure_packed_vs_scalar(name, n, patterns, cycles));
  };
  measure("shift64", shift_register(64));
  measure("twisted64", twisted_ring(64));
  measure("adder32x4", pipelined_adder(32, 4));
  measure("ctrl_datapath64", controller_datapath(64));
  measure("random2048", workload(2048, 42));

  std::printf("%-16s %-8s %-8s %-14s %-14s %-8s\n", "workload", "gates",
              "latches", "scalar pat/s", "packed pat/s", "speedup");
  for (const PackedRow& r : rows) {
    std::printf("%-16s %-8zu %-8zu %-14.3g %-14.3g %-8.1f\n", r.name.c_str(),
                r.gates, r.latches, r.scalar_pps, r.packed_pps, r.speedup);
  }
  std::printf("(%u patterns x %u cycles per workload, random ternary "
              "inputs, all-X power-up on both engines)\n",
              patterns, cycles);
  for (const PackedRow& r : rows) {
    report->add({r.name, "sim", "gates"}, static_cast<double>(r.gates), "count");
    report->add({r.name, "sim", "latches"}, static_cast<double>(r.latches),
                "count");
    report->add({r.name, "sim", "patterns"}, r.patterns, "count");
    report->add({r.name, "sim", "cycles"}, r.cycles, "count");
    report->add({r.name, "sim", "scalar_cls_patterns_per_sec"}, r.scalar_pps,
                "1/s");
    report->add({r.name, "sim", "packed_cls_patterns_per_sec"}, r.packed_pps,
                "1/s");
    report->add({r.name, "sim", "speedup"}, r.speedup, "x");
  }
}

// ---- E11c: row-keyed minimized extraction ---------------------------------

struct ExtractRow {
  std::string name;
  unsigned latches = 0, inputs = 0;
  std::uint64_t reps = 0;    ///< rows swept: representatives, else 2^L
  std::uint64_t states = 0;  ///< quotient states
  double keyed_ms = 0.0;     ///< Stg::extract_minimized
  double raw_ms = 0.0;       ///< quotient(extract, equivalence_classes)
  bool same = false;         ///< table for table
};

bool same_tables(const Stg& a, const Stg& b) {
  if (a.num_states() != b.num_states() || !a.compatible_with(b)) return false;
  for (std::uint64_t s = 0; s < a.num_states(); ++s) {
    for (std::uint64_t i = 0; i < a.num_inputs(); ++i) {
      if (a.next_state(s, i) != b.next_state(s, i) ||
          a.output(s, i) != b.output(s, i)) {
        return false;
      }
    }
  }
  return true;
}

template <typename F>
double best_ms(int repeats, F&& f) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    best = std::min(best, seconds_since(t0) * 1e3);
  }
  return best;
}

ExtractRow measure_extraction(const std::string& name, const Netlist& n,
                              int repeats) {
  ExtractRow row;
  row.name = name;
  row.latches = static_cast<unsigned>(n.num_latches());
  row.inputs = static_cast<unsigned>(n.primary_inputs().size());
  const RowKeys keys = row_keys(n);
  row.reps = keys.reps.empty() ? std::uint64_t{1} << row.latches
                               : keys.reps.size();
  const Stg keyed = Stg::extract_minimized(n);
  const Stg raw = Stg::extract(n);
  row.states = keyed.num_states();
  row.same = same_tables(keyed, quotient(raw, equivalence_classes(raw)));
  row.keyed_ms = best_ms(repeats, [&] {
    benchmark::DoNotOptimize(Stg::extract_minimized(n));
  });
  row.raw_ms = best_ms(repeats, [&] {
    const Stg m = Stg::extract(n);
    benchmark::DoNotOptimize(quotient(m, equivalence_classes(m)));
  });
  return row;
}

void report_row_keyed(bench::Report* report) {
  bench::heading("E11c / row-keyed extraction",
                 "Stg::extract_minimized (one representative state per row "
                 "key) vs quotient(extract)");
  const int repeats = bench::smoke_mode() ? 3 : 21;
  const Netlist adder = pipelined_adder(4, 2);
  const RetimeGraph g = RetimeGraph::from_netlist(adder);
  Rng rng(11);
  RandomCircuitOptions opt;
  opt.num_inputs = 4;
  opt.num_latches = 10;
  opt.num_gates = 40;
  opt.latch_after_gate_probability = 0.0;
  const std::pair<std::string, Netlist> designs[] = {
      {"adder4_2", adder},
      {"adder4_2/min-area",
       sequence_retiming(adder, g, min_area_retime(g).lag).retimed},
      {"adder4_2/min-period",
       sequence_retiming(adder, g, min_period_retime_feas(g).lag).retimed},
      {"shift8", shift_register(8)},
      {"lfsr8", lfsr(8, {0, 3, 5})},
      {"random40_s11", random_netlist(opt, rng)},
  };
  std::vector<ExtractRow> rows;
  for (const auto& [name, n] : designs) {
    report->gate({name, "stg", "same_quotient"}, bench::Gate::eq(true));
    rows.push_back(measure_extraction(name, n, repeats));
  }
  std::printf("%-20s %-4s %-4s %-6s %-7s %-12s %-12s %-5s\n", "design", "L",
              "I", "rows", "states", "keyed ms", "raw ms", "same");
  for (const ExtractRow& r : rows) {
    std::printf("%-20s %-4u %-4u %-6llu %-7llu %-12.4f %-12.4f %-5s\n",
                r.name.c_str(), r.latches, r.inputs,
                static_cast<unsigned long long>(r.reps),
                static_cast<unsigned long long>(r.states), r.keyed_ms,
                r.raw_ms, r.same ? "yes" : "NO");
    report->add({r.name, "stg", "latches"}, r.latches, "count");
    report->add({r.name, "stg", "inputs"}, r.inputs, "count");
    report->add({r.name, "stg", "representatives"},
                static_cast<double>(r.reps), "count");
    report->add({r.name, "stg", "quotient_states"},
                static_cast<double>(r.states), "count");
    report->add({r.name, "stg", "extract_minimized_ms"}, r.keyed_ms, "ms");
    report->add({r.name, "stg", "quotient_of_extract_ms"}, r.raw_ms, "ms");
    report->add_flag({r.name, "stg", "same_quotient"}, r.same);
  }
  std::printf("(best of %d; rows = states swept per input symbol: one "
              "representative per row key, or 2^L where no key halves the "
              "states)\n",
              repeats);
}

}  // namespace

void report() {
  const bool smoke = bench::smoke_mode();
  bench::heading("E11 / simulators",
                 "gate-evaluations per second by simulator kind");
  std::printf("%-10s %-10s %-14s %-14s %-14s\n", "gates", "latches",
              "binary Geval/s", "parallel64", "CLS Geval/s");
  const std::vector<unsigned> sizes =
      smoke ? std::vector<unsigned>{256u}
            : std::vector<unsigned>{256u, 2048u, 16384u};
  for (const unsigned gates : sizes) {
    const Netlist n = workload(gates, 42);
    const unsigned cycles = smoke ? 50 : 2000;
    Rng rng(7);
    Bits in(n.primary_inputs().size());

    BinarySimulator bsim(n);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < cycles; ++t) {
      for (auto& v : in) v = rng.coin();
      benchmark::DoNotOptimize(bsim.step(in));
    }
    const double bin_s = seconds_since(t0);

    PackedTernarySimulator psim(n, 64);
    psim.set_state_broadcast(Trits(n.num_latches(), Trit::kZero));
    Trits lifted(in.size());
    t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < cycles; ++t) {
      for (auto& v : lifted) v = to_trit(rng.coin());
      psim.step_broadcast(lifted);
    }
    const double par_s = seconds_since(t0);

    ClsSimulator csim(n);
    t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < cycles; ++t) {
      for (auto& v : in) v = rng.coin();
      benchmark::DoNotOptimize(csim.step(in));
    }
    const double cls_s = seconds_since(t0);

    const double evals = static_cast<double>(n.num_gates()) * cycles;
    std::printf("%-10zu %-10zu %-14.3g %-14.3g %-14.3g\n", n.num_gates(),
                n.num_latches(), evals / bin_s / 1e9,
                evals * 64 / par_s / 1e9, evals / cls_s / 1e9);
  }
  std::printf("\n(parallel64 is the packed ternary engine on definite lanes\n"
              "and counts 64 lanes of gate evaluations per step;\n"
              "exact 3-valued simulation is benchmarked below — its cost\n"
              "scales with the tracked power-up state-set size)\n");

  bench::Report report("sim_throughput");
  report_packed(&report);
  report_row_keyed(&report);
  report.emit("BENCH_sim.json");
}

namespace {

void BM_BinaryStep(benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 1);
  BinarySimulator sim(n);
  const Bits in(n.primary_inputs().size(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(in));
  }
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(n.num_gates()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BinaryStep)->Arg(256)->Arg(2048)->Arg(16384);

void BM_Parallel64Step(benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 1);
  PackedTernarySimulator sim(n, 64);
  sim.set_state_broadcast(Trits(n.num_latches(), Trit::kZero));
  const Trits in(n.primary_inputs().size(), Trit::kOne);
  for (auto _ : state) {
    sim.step_broadcast(in);
  }
  state.counters["lane-gates/s"] = benchmark::Counter(
      static_cast<double>(n.num_gates()) * 64,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Parallel64Step)->Arg(256)->Arg(2048)->Arg(16384);

void BM_ClsStep(benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 1);
  ClsSimulator sim(n);
  const Trits in(n.primary_inputs().size(), Trit::kX);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(in));
  }
}
BENCHMARK(BM_ClsStep)->Arg(256)->Arg(2048)->Arg(16384);

void BM_PackedClsStep(benchmark::State& state) {
  const Netlist n = workload(static_cast<unsigned>(state.range(0)), 1);
  PackedTernarySimulator sim(n, 64);
  const Trits in(n.primary_inputs().size(), Trit::kX);
  for (auto _ : state) {
    sim.step_broadcast(in);
  }
  state.counters["lane-gates/s"] = benchmark::Counter(
      static_cast<double>(n.num_gates()) * 64,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PackedClsStep)->Arg(256)->Arg(2048)->Arg(16384);

void BM_ExactStep(benchmark::State& state) {
  // Exact sim on a circuit with state.range(0) latches from all power-up.
  Rng rng(3);
  RandomCircuitOptions opt;
  opt.num_inputs = 4;
  opt.num_gates = 64;
  opt.num_latches = static_cast<unsigned>(state.range(0));
  opt.latch_after_gate_probability = 0.0;
  const Netlist n = random_netlist(opt, rng);
  ExactTernarySimulator sim(n);
  const Bits in(n.primary_inputs().size(), 0);
  for (auto _ : state) {
    state.PauseTiming();
    sim.reset_all_powerup();
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.step(in));
  }
  state.counters["states"] =
      static_cast<double>(std::uint64_t{1} << state.range(0));
}
BENCHMARK(BM_ExactStep)->Arg(8)->Arg(12)->Arg(16);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
