// Backend matrix — per-backend (explicit, BDD, SAT, portfolio)
// time-to-verdict on the cone shapes that separate the engines, plus the
// portfolio contract:
//
//  * bdd_friendly: a pipelined ripple-carry adder against its min-area
//    retiming. The dual-rail encoding keeps narrow BDDs, so symbolic
//    reachability proves CLS equivalence quickly; SAT may or may not close
//    the proof by induction.
//  * multiplier_like: two pipelined array multipliers with different
//    register placement (and hence different latency) — CLS-distinguishable
//    with a shallow definitive counterexample. Multiplication is the
//    classic BDD killer: under a deliberately small node cap the BDD engine
//    exhausts, while SAT answers definitively within the default budget.
//  * narrow_random: a seeded 3-input, 60-gate random design against its
//    min-period retiming. Its reachable state-pair set is small, so the
//    portfolio's explicit stage proves it before the BDD/SAT race starts.
//  * wide_mutant: an 8-input pipelined adder, min-area retimed, against
//    one of its stuck-at mutants that kCls fault simulation detects. Too
//    wide for the stage's pair BFS, but the stage's sampling refutes it
//    before the race spawns an engine thread.
//
// Every pair is a plain retiming, which the per-move certificate of its
// recovered lag would decide ahead of any engine; the engine rows run with
// allow_static_proof = false so that they measure the engines. One extra
// row runs the portfolio with static arguments allowed on narrow_random,
// where the certificate must decide.
//
// BENCH_backend.json (the shared row schema, bench_util.hpp) records
// per-backend timings, verdicts and decided_by, and gates the engine-matrix
// contract: on multiplier_like the capped BDD run must exhaust AND the SAT
// run must return a definitive (proven) verdict; on narrow_random the
// explicit stage must decide the portfolio run, and the certificate the
// portfolio run with static arguments allowed; on wide_mutant the explicit
// stage must refute the portfolio run; on every workload the
// portfolio must return a conclusive verdict and finish within 1.2x the
// best single backend (plus a small absolute grace for thread-scheduling
// jitter on sub-millisecond runs). RTV_BENCH_SMOKE=1 shrinks the cones so
// CI can run the report in seconds.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/safety.hpp"
#include "core/verify.hpp"
#include "fault/engine.hpp"
#include "fault/fault.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

/// Absolute grace on top of the 1.2x bound: the portfolio pays two thread
/// spawns and a condition-variable handshake, which dominates only when
/// the best engine finishes in microseconds.
constexpr double kPortfolioGraceMs = 25.0;

struct EngineRun {
  std::string backend;
  double ms = 0.0;
  std::string verdict;
  bool equivalent = false;
  std::string decided_by;
};

struct Workload {
  std::string name;
  std::vector<EngineRun> runs;
  double best_single_ms = 0.0;   ///< fastest *conclusive* single backend
  double portfolio_ms = 0.0;
};

EngineRun run_engine(EquivalenceBackend backend, const Netlist& a,
                     const Netlist& b, const VerifyOptions& base) {
  VerifyOptions opt = base;
  opt.backend = backend;
  ResourceBudget budget((ResourceLimits()));  // default caps, no deadline
  const auto t0 = std::chrono::steady_clock::now();
  const ClsEquivalenceResult r = verify_cls_equivalence(a, b, opt, &budget);
  EngineRun run;
  run.ms = bench::ms_since(t0);
  run.backend = to_string(backend);
  run.verdict = to_string(r.verdict);
  run.equivalent = r.equivalent;
  run.decided_by = to_string(r.decided_by);
  return run;
}

/// Runs every backend on (a, b) and reports the rows, gating the portfolio
/// contract: conclusive, and within 1.2x (plus grace) of the fastest
/// conclusive single backend.
Workload run_workload(bench::Report* report, const std::string& name,
                      const Netlist& a, const Netlist& b,
                      const VerifyOptions& base) {
  report->gate({name, "core", "portfolio.verdict"}, bench::Gate::eq("proven"));
  report->gate({name, "core", "best_single_ms"}, bench::Gate::above(0.0));
  Workload w;
  w.name = name;
  for (const EquivalenceBackend backend :
       {EquivalenceBackend::kExplicit, EquivalenceBackend::kBdd,
        EquivalenceBackend::kSat, EquivalenceBackend::kPortfolio}) {
    w.runs.push_back(run_engine(backend, a, b, base));
  }
  for (const EngineRun& r : w.runs) {
    if (r.backend == std::string("portfolio")) {
      w.portfolio_ms = r.ms;
    } else if (r.verdict == std::string("proven")) {
      if (w.best_single_ms == 0.0 || r.ms < w.best_single_ms) {
        w.best_single_ms = r.ms;
      }
    }
    report->add({name, "core", r.backend + ".ms"}, r.ms, "ms");
    report->add_label({name, "core", r.backend + ".verdict"}, r.verdict);
    report->add_flag({name, "core", r.backend + ".equivalent"}, r.equivalent);
    report->add_label({name, "core", r.backend + ".decided_by"},
                      r.decided_by);
  }
  report->gate({name, "core", "portfolio.ms"},
               bench::Gate::max(1.2 * w.best_single_ms + kPortfolioGraceMs));
  report->add({name, "core", "best_single_ms"}, w.best_single_ms, "ms");
  return w;
}

/// The engine rows' options: static arguments off, so the engines decide.
VerifyOptions engines_only() {
  VerifyOptions opt;
  opt.allow_static_proof = false;
  return opt;
}

std::vector<Workload> run_report(bench::Report* report, bool smoke) {
  std::vector<Workload> workloads;

  // BDD-friendly cone: adder vs its own min-area retiming (equivalent).
  {
    const Netlist adder = pipelined_adder(smoke ? 4 : 6, 2);
    const RetimeGraph g = RetimeGraph::from_netlist(adder);
    SequencedRetiming seq;
    analyze_lag_retiming(adder, g, min_area_retime(g).lag, &seq);
    workloads.push_back(run_workload(report, "bdd_friendly", adder,
                                     seq.retimed, engines_only()));
  }

  // Multiplier-like cone: two register placements of the same array
  // multiplier with different latency (CLS-distinguishable). The BDD node
  // cap is deliberately small so symbolic reachability exhausts on the
  // multiplication structure; SAT must still answer definitively.
  {
    const unsigned bits = smoke ? 3 : 4;
    const Netlist fine = pipelined_multiplier(bits, smoke ? 1 : 2);
    const Netlist coarse = pipelined_multiplier(bits, bits);
    VerifyOptions base = engines_only();
    base.bdd.node_limit = smoke ? 3000 : 20000;
    report->gate({"multiplier_like", "core", "bdd.verdict"},
                 bench::Gate::eq("exhausted"));
    report->gate({"multiplier_like", "core", "sat.verdict"},
                 bench::Gate::eq("proven"));
    workloads.push_back(
        run_workload(report, "multiplier_like", fine, coarse, base));
  }

  // Narrow random cone: few inputs and a small reachable pair set, which
  // the portfolio's explicit stage decides on its own.
  {
    RandomCircuitOptions o;
    o.num_gates = 60;
    o.num_latches = 8;
    Rng rng(3);
    const Netlist n = random_netlist(o, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    SequencedRetiming seq;
    analyze_lag_retiming(n, g, min_period_retime_feas(g).lag, &seq);
    report->gate({"narrow_random", "core", "portfolio.decided_by"},
                 bench::Gate::eq("explicit"));
    workloads.push_back(run_workload(report, "narrow_random", n, seq.retimed,
                                     engines_only()));
    EngineRun certified = run_engine(EquivalenceBackend::kPortfolio, n,
                                     seq.retimed, VerifyOptions{});
    certified.backend = "portfolio+static";
    report->gate({"narrow_random", "core", "portfolio_static.decided_by"},
                 bench::Gate::eq("static"));
    report->add({"narrow_random", "core", "portfolio_static.ms"}, certified.ms,
                "ms");
    report->add_label({"narrow_random", "core", "portfolio_static.decided_by"},
                      certified.decided_by);
    workloads.back().runs.push_back(certified);
  }

  // Wide mutant: the retimed adder against the middle one of its
  // kCls-detected stuck-at faults, a fixed choice per design.
  {
    const Netlist adder = pipelined_adder(4, 2);
    const RetimeGraph g = RetimeGraph::from_netlist(adder);
    SequencedRetiming seq;
    analyze_lag_retiming(adder, g, min_area_retime(g).lag, &seq);
    Rng rng(0x5eed);
    std::vector<BitsSeq> tests(16);
    for (BitsSeq& test : tests) {
      for (int t = 0; t < 12; ++t) {
        Bits in(seq.retimed.primary_inputs().size());
        for (auto& v : in) v = rng.coin();
        test.push_back(in);
      }
    }
    FaultSimOptions fo;
    fo.mode = FaultSimMode::kCls;
    const std::vector<Fault> faults = collapse_faults(seq.retimed);
    const FaultSimResult fr = FaultSimEngine(seq.retimed, tests, fo).run(faults);
    std::vector<std::size_t> detected;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (fr.detected[i]) detected.push_back(i);
    }
    const Netlist mutant =
        inject_fault(seq.retimed, faults.at(detected.at(detected.size() / 2)));
    report->gate({"wide_mutant", "core", "portfolio.decided_by"},
                 bench::Gate::eq("explicit"));
    workloads.push_back(run_workload(report, "wide_mutant", seq.retimed,
                                     mutant, engines_only()));
  }

  return workloads;
}

}  // namespace

void report() {
  bench::heading("backend matrix / portfolio",
                 "per-backend time-to-verdict on BDD-friendly, "
                 "multiplier-like, narrow random and wide mutant cones; "
                 "portfolio contract");
  bench::Report report("backend_portfolio");
  const std::vector<Workload> workloads =
      run_report(&report, bench::smoke_mode());

  for (const Workload& w : workloads) {
    std::printf("\n%s:\n", w.name.c_str());
    std::printf("  %-10s %-12s %-10s %-12s %s\n", "backend", "ms", "verdict",
                "equivalent", "decided by");
    for (const EngineRun& r : w.runs) {
      std::printf("  %-10s %-12.2f %-10s %-12s %s\n", r.backend.c_str(), r.ms,
                  r.verdict.c_str(), r.equivalent ? "yes" : "no",
                  r.decided_by.c_str());
    }
    std::printf("  best single %.2f ms, portfolio %.2f ms (bound 1.2x + "
                "%.0f ms grace)\n",
                w.best_single_ms, w.portfolio_ms, kPortfolioGraceMs);
  }

  report.emit("BENCH_backend.json");
}

}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
