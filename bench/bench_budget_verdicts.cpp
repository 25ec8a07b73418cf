// Robustness — time-to-first-verdict under resource governance: every
// budgeted entry point (CLS equivalence, STG extraction, symbolic
// reachability, fault simulation, validate, flow) measured without a budget
// and again under a 100 ms wall-clock deadline.
//
// BENCH_robustness.json (the shared row schema, bench_util.hpp) records
// both timings and verdicts per entry point and gates the governance
// contract: budgeted runs must return within 2x the deadline (cooperative
// checkpoints are frequent enough that overshoot is bounded by one unit of
// work), and a run whose budget blew must never label its verdict
// "proven". RTV_BENCH_SMOKE=1 shrinks the workloads so CI can run the
// report in seconds.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bdd/symbolic.hpp"
#include "core/cls_equiv.hpp"
#include "core/flow.hpp"
#include "core/validator.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "sim/vectors.hpp"
#include "stg/stg.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

constexpr std::uint64_t kDeadlineMs = 100;

struct Row {
  std::string entry_point;
  double full_ms = 0.0;          ///< unbudgeted time to verdict
  std::string full_verdict;
  double budgeted_ms = 0.0;      ///< with the 100 ms deadline
  std::string budgeted_verdict;
  bool budget_blew = false;      ///< the deadline actually bit
  bool honest = false;           ///< blew -> verdict is not "proven"
};

ResourceLimits deadline_limits() {
  ResourceLimits limits;
  limits.time_budget_ms = kDeadlineMs;
  return limits;
}

/// Runs `body` twice — ungoverned, then under the deadline — and fills the
/// contract fields, whose gates it declares first. `body` returns (verdict
/// label, budget blew).
template <typename Body>
Row measure(bench::Report* report, const std::string& name, Body&& body) {
  report->gate({name, "budget", "budgeted_ms"},
               bench::Gate::max(2.0 * static_cast<double>(kDeadlineMs)));
  report->gate({name, "budget", "honest_degradation"}, bench::Gate::eq(true));
  Row row;
  row.entry_point = name;

  const auto t0 = std::chrono::steady_clock::now();
  const auto full = body(nullptr);
  row.full_ms = bench::ms_since(t0);
  row.full_verdict = full.first;

  ResourceBudget budget(deadline_limits());
  const auto t1 = std::chrono::steady_clock::now();
  const auto bounded = body(&budget);
  row.budgeted_ms = bench::ms_since(t1);
  row.budgeted_verdict = bounded.first;
  row.budget_blew = bounded.second;
  row.honest = !(row.budget_blew && row.budgeted_verdict == "proven");
  return row;
}

using VerdictLabel = std::pair<std::string, bool>;

Netlist random_workload(unsigned gates, unsigned latches, unsigned inputs,
                        std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = inputs;
  opt.num_outputs = 8;
  opt.num_gates = gates;
  opt.num_latches = latches;
  opt.latch_after_gate_probability = 0.05;
  return random_netlist(opt, rng);
}

std::vector<Row> run_report(bench::Report* report, bool smoke) {
  std::vector<Row> rows;

  // CLS equivalence, exhaustive regime: the bench_thm51_cls shape (few
  // inputs, gates/4 latches) keeps 3^I under max_branching, so the pair
  // BFS runs and the deadline bites at its per-pair checkpoints.
  {
    const unsigned gates = smoke ? 24 : 96;
    const Netlist n = random_workload(gates, gates / 4, 4, 0xB1);
    rows.push_back(measure(report, "cls_exhaustive", [&](ResourceBudget* b) {
      const ClsEquivalenceResult r = check_cls_equivalence(n, n, {}, b);
      return VerdictLabel{to_string(r.verdict),
                          r.verdict == Verdict::kExhausted};
    }));
  }

  // CLS equivalence, bounded regime: many inputs force bounded random
  // checking, whose per-cycle checkpoints carry the deadline instead.
  {
    const Netlist n =
        random_workload(smoke ? 256 : 4096, smoke ? 8 : 24, 12, 0xB1);
    ClsEquivOptions opt;
    opt.random_sequences = smoke ? 32 : 2000;
    opt.random_length = smoke ? 8 : 64;
    rows.push_back(measure(report, "cls_bounded", [&](ResourceBudget* b) {
      const ClsEquivalenceResult r = check_cls_equivalence(n, n, opt, b);
      return VerdictLabel{to_string(r.verdict), r.verdict == Verdict::kExhausted};
    }));
  }

  // STG extraction: per-state-row checkpoints; cannot return a partial
  // machine, so exhaustion surfaces as ResourceExhausted.
  {
    const Netlist n = random_workload(smoke ? 96 : 512, smoke ? 6 : 13,
                                      smoke ? 2 : 4, 0xB2);
    rows.push_back(measure(report, "stg_extract", [&](ResourceBudget* b) {
      try {
        const Stg stg = Stg::extract(n, kDefaultStgEntryCap, b);
        (void)stg.num_states();
        return VerdictLabel{"proven", false};
      } catch (const ResourceExhausted&) {
        return VerdictLabel{"exhausted", true};
      }
    }));
  }

  // Symbolic reachability: checkpoints per image iteration and per BDD
  // node-allocation probe.
  {
    const Netlist n = random_workload(smoke ? 128 : 1024, smoke ? 12 : 48,
                                      8, 0xB3);
    const Bits zero(n.latches().size(), 0);
    rows.push_back(measure(report, "symbolic_reach", [&](ResourceBudget* b) {
      try {
        SymbolicMachine machine(n, kDefaultBddNodeLimit, b);
        machine.reachable(machine.state_cube(zero));
        return VerdictLabel{"proven", false};
      } catch (const ResourceExhausted&) {
        return VerdictLabel{"exhausted", true};
      }
    }));
  }

  // Fault simulation: per-fault and per-test checkpoints in the workers;
  // exhaustion leaves the remaining faults undecided.
  {
    const Netlist n = random_workload(smoke ? 256 : 4096, 8, 12, 0xB4);
    const std::vector<Fault> faults = collapse_faults(n);
    Rng rng(0xB4);
    std::vector<BitsSeq> tests(smoke ? 32 : 512);
    for (BitsSeq& t : tests) {
      for (unsigned c = 0; c < (smoke ? 4u : 16u); ++c) {
        Bits in(n.primary_inputs().size());
        for (auto& v : in) v = rng.coin();
        t.push_back(std::move(in));
      }
    }
    rows.push_back(measure(report, "fault_sim", [&](ResourceBudget* b) {
      FaultSimOptions opt;
      opt.mode = FaultSimMode::kCls;
      opt.threads = 1;
      if (b != nullptr) opt.budget = b->limits();
      const FaultSimResult r = fault_simulate(n, faults, tests, opt);
      return VerdictLabel{r.complete ? "bounded" : "exhausted", !r.complete};
    }));
  }

  // validate: the full pipeline behind `rtv validate` (CLS + the STG phase
  // whenever the design fits the exact-analysis caps).
  {
    const Netlist n = controller_datapath(smoke ? 8 : 48);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const std::vector<int> lag(g.num_vertices(), 0);
    VerifyOptions vopt;
    // Bounded mode outright: the exhaustive pair BFS takes minutes on the
    // datapath, and bounded checking is the realistic regime this report
    // is about (the budget behavior is identical).
    vopt.explicit_opts.max_branching = 1;
    vopt.explicit_opts.random_sequences = smoke ? 16 : 500;
    vopt.explicit_opts.random_length = smoke ? 8 : 64;
    rows.push_back(measure(report, "validate", [&](ResourceBudget* b) {
      ValidationOptions opt;
      opt.verify = vopt;
      if (b != nullptr) opt.budget = b->limits();
      const RetimingValidation v = validate_retiming(n, g, lag, opt);
      return VerdictLabel{to_string(v.verdict),
                          v.verdict == Verdict::kExhausted};
    }));
  }

  // flow: cleanup + retiming + CLS gate behind `rtv flow`.
  {
    const Netlist n = controller_datapath(smoke ? 8 : 48);
    VerifyOptions vopt;
    vopt.explicit_opts.max_branching = 1;  // bounded mode, as above
    vopt.explicit_opts.random_sequences = smoke ? 16 : 500;
    vopt.explicit_opts.random_length = smoke ? 8 : 64;
    rows.push_back(measure(report, "flow", [&](ResourceBudget* b) {
      FlowOptions opt;
      opt.verify = vopt;
      if (b != nullptr) opt.budget = b->limits();
      const FlowReport r = run_synthesis_flow(n, opt);
      return VerdictLabel{to_string(r.verdict),
                          r.verdict == Verdict::kExhausted};
    }));
  }

  return rows;
}

}  // namespace

void report() {
  bench::heading("robustness / budget verdicts",
                 "time-to-first-verdict per governed entry point, "
                 "ungoverned vs a 100 ms wall-clock budget");
  bench::Report report("budget_verdicts");
  const std::vector<Row> rows = run_report(&report, bench::smoke_mode());

  std::printf("%-16s %-12s %-10s %-12s %-10s %-6s\n", "entry point",
              "full ms", "verdict", "budget ms", "verdict", "blew");
  for (const Row& r : rows) {
    std::printf("%-16s %-12.2f %-10s %-12.2f %-10s %-6s\n",
                r.entry_point.c_str(), r.full_ms, r.full_verdict.c_str(),
                r.budgeted_ms, r.budgeted_verdict.c_str(),
                r.budget_blew ? "yes" : "no");
    const std::string& w = r.entry_point;
    report.add({w, "budget", "full_ms"}, r.full_ms, "ms");
    report.add_label({w, "budget", "full_verdict"}, r.full_verdict);
    report.add({w, "budget", "budgeted_ms"}, r.budgeted_ms, "ms");
    report.add_label({w, "budget", "budgeted_verdict"}, r.budgeted_verdict);
    report.add_flag({w, "budget", "budget_blew"}, r.budget_blew);
    report.add_flag({w, "budget", "honest_degradation"}, r.honest);
  }
  std::printf("(deadline %llu ms; a budgeted run must return within 2x the "
              "deadline\nand must never label a degraded verdict as proven)\n",
              static_cast<unsigned long long>(kDeadlineMs));
  report.emit("BENCH_robustness.json");
}

}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
