// Backend cross-check suite: the explicit, BDD, and SAT engines (and the
// portfolio racing the last two) must tell the same story on the same
// query — equivalent retimed pairs stay equivalent under every backend,
// inequivalent pairs yield a definitive verdict with a *replayable*
// counterexample from every backend, and a fault-injected budget trip
// degrades any backend to an honestly-labeled bounded/exhausted report
// without poisoning the portfolio.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/safety.hpp"
#include "core/verify.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "io/rnl_format.hpp"
#include "retime/apply.hpp"
#include "retime/graph.hpp"
#include "retime/min_period.hpp"
#include "test_helpers.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;
using testing::toggle_circuit;

constexpr EquivalenceBackend kAllBackends[] = {
    EquivalenceBackend::kExplicit,
    EquivalenceBackend::kBdd,
    EquivalenceBackend::kSat,
    EquivalenceBackend::kPortfolio,
};

/// inverter_pipeline with the NOT replaced by a BUF — CLS-distinguishable
/// from cycle 2 on, so every backend must find a counterexample.
Netlist buffer_pipeline() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId l0 = n.add_latch("L0");
  const NodeId l1 = n.add_latch("L1");
  const NodeId b = n.add_gate(CellKind::kBuf, 0, "b");
  n.connect(in, l0);
  n.connect(l0, b);
  n.connect(b, l1);
  n.connect(PortRef(l1, 0), PinRef(out, 0));
  n.check_valid(true);
  return n;
}

std::vector<int> random_legal_lag(const RetimeGraph& g, Rng& rng,
                                  int attempts = 40) {
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

ClsEquivalenceResult run_backend(EquivalenceBackend backend, const Netlist& a,
                                 const Netlist& b,
                                 ResourceBudget* budget = nullptr,
                                 bool allow_static_proof = true) {
  VerifyOptions opt;
  opt.backend = backend;
  opt.allow_static_proof = allow_static_proof;
  return verify_cls_equivalence(a, b, opt, budget);
}

TEST(BackendCrosscheck, AllBackendsAgreeOnRandomRetimedPairs) {
  // Corollary 5.3 instances: every backend must report the retimed design
  // CLS-equivalent to the original — any counterexample anywhere is a bug
  // in that engine (the dispatcher would even reject it as non-replaying).
  Rng rng(909);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 14;
  opt.latch_after_gate_probability = 0.3;
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const std::vector<int> lag = random_legal_lag(g, rng);
    SequencedRetiming seq;
    analyze_lag_retiming(n, g, lag, &seq);
    for (const EquivalenceBackend backend : kAllBackends) {
      SCOPED_TRACE(std::string("trial ") + std::to_string(trial) +
                   " backend " + to_string(backend));
      const ClsEquivalenceResult r = run_backend(backend, n, seq.retimed);
      EXPECT_TRUE(r.equivalent) << r.summary();
      EXPECT_FALSE(r.counterexample.has_value());
      // Without a budget nothing can run out: the verdict is a completed
      // proof or a completed bounded analysis (k-induction need not close
      // on arbitrary pairs, so kBounded is acceptable for SAT).
      EXPECT_NE(r.verdict, Verdict::kExhausted) << r.summary();
      EXPECT_FALSE(r.decided_reason.empty());
    }
  }
}

TEST(BackendCrosscheck, AllBackendsProveIdenticalDesignsEquivalent) {
  const Netlist n = toggle_circuit();
  for (const EquivalenceBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const ClsEquivalenceResult r = run_backend(backend, n, n);
    EXPECT_TRUE(r.equivalent) << r.summary();
    EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
    EXPECT_TRUE(r.exhaustive);
  }
}

/// One input (unused) and one output tied to a constant cell.
Netlist constant_design(bool value) {
  Netlist n;
  n.add_input("in");
  const NodeId out = n.add_output("out");
  n.connect(n.add_const(value), out);
  n.check_valid(true);
  return n;
}

TEST(BackendCrosscheck, SatAndPortfolioRefuteConst0AgainstConst1) {
  // The SAT encoding must map AIG constant literal 0 to false: with it
  // inverted both outputs read the same flipped constant and k-induction
  // "proves" the pair equivalent at k = 0.
  const Netlist zero = constant_design(false);
  const Netlist one = constant_design(true);
  for (const EquivalenceBackend backend :
       {EquivalenceBackend::kSat, EquivalenceBackend::kPortfolio}) {
    SCOPED_TRACE(to_string(backend));
    const ClsEquivalenceResult r = run_backend(backend, zero, one);
    EXPECT_FALSE(r.equivalent) << r.summary();
    EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_FALSE(cls_outputs_match(zero, one, *r.counterexample));
  }
}

TEST(BackendCrosscheck, SatProvesMuxSelectSelfPair) {
  // examples/mux_select.rnl: the CLS dual-rail encoding of a mux uses AIG
  // constants, so an inverted constant yields spurious counterexamples.
  const Netlist n = read_rnl(
      "rnl 1\n"
      "node s input\nnode a input\nnode b input\nnode out output\n"
      "node m mux\n"
      "wire s.0 m.0\nwire a.0 m.1\nwire b.0 m.2\nwire m.0 out.0\n");
  const ClsEquivalenceResult r =
      run_backend(EquivalenceBackend::kSat, n, n, nullptr,
                  /*allow_static_proof=*/false);
  EXPECT_TRUE(r.equivalent) << r.summary();
  EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
  EXPECT_EQ(r.decided_by, EquivalenceBackend::kSat);
}

TEST(BackendCrosscheck, BddAndSatAgreeOnDesignsWithConstantCells) {
  // Min-period retiming of a pipelined multiplier: constant cells feed the
  // partial-product array on both sides of the pair. (pipelined_multiplier
  // (4, 1) has the same shape but exceeds the BDD engine's latch cap.)
  const Netlist n = pipelined_multiplier(2, 1);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const Netlist retimed = apply_retiming(n, g, min_period_retime_feas(g).lag);
  const ClsEquivalenceResult bdd = run_backend(EquivalenceBackend::kBdd, n,
                                               retimed, nullptr, false);
  const ClsEquivalenceResult sat = run_backend(EquivalenceBackend::kSat, n,
                                               retimed, nullptr, false);
  ASSERT_EQ(bdd.verdict, Verdict::kProven) << bdd.summary();
  EXPECT_TRUE(bdd.equivalent) << bdd.summary();
  EXPECT_EQ(sat.equivalent, bdd.equivalent)
      << "bdd: " << bdd.summary() << "\nsat: " << sat.summary();
  EXPECT_EQ(sat.verdict, Verdict::kProven) << sat.summary();
}

TEST(BackendCrosscheck, AllBackendsFindReplayableCounterexamples) {
  const Netlist a = inverter_pipeline();
  const Netlist b = buffer_pipeline();
  for (const EquivalenceBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const ClsEquivalenceResult r = run_backend(backend, a, b);
    EXPECT_FALSE(r.equivalent) << r.summary();
    EXPECT_EQ(r.verdict, Verdict::kProven)
        << "a counterexample is definitive: " << r.summary();
    ASSERT_TRUE(r.counterexample.has_value());
    // Every backend's witness must replay on the concrete CLS simulators.
    EXPECT_FALSE(cls_outputs_match(a, b, *r.counterexample));
  }
}

TEST(BackendCrosscheck, PortfolioStampsTheDecidingEngine) {
  const Netlist n = toggle_circuit();
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kPortfolio;
  // This test exists to exercise the race machinery; keep the static
  // fixpoint proof from short-circuiting it.
  opt.allow_static_proof = false;
  const ClsEquivalenceResult r = verify_cls_equivalence(n, n, opt);
  EXPECT_TRUE(r.equivalent);
  EXPECT_EQ(r.verdict, Verdict::kProven);
  EXPECT_TRUE(r.decided_by == EquivalenceBackend::kBdd ||
              r.decided_by == EquivalenceBackend::kSat)
      << to_string(r.decided_by);
  EXPECT_NE(r.decided_reason.find("portfolio"), std::string::npos)
      << r.decided_reason;
}

TEST(BackendCrosscheck, PortfolioUsageUnderABudgetCountsTheEngines) {
  // Under a caller budget the portfolio used to report that budget alone:
  // the babysitting loop's few checkpoints and none of the engines' work.
  const Netlist n = toggle_circuit();
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kPortfolio;
  opt.allow_static_proof = false;
  ResourceBudget budget;
  const ClsEquivalenceResult r = verify_cls_equivalence(n, n, opt, &budget);
  ASSERT_EQ(r.verdict, Verdict::kProven);
  EXPECT_GT(r.usage.steps, budget.usage().steps);
  EXPECT_FALSE(r.usage.exhausted);
}

/// Shared well-formedness bar for fault-injected runs on an *equivalent*
/// pair: whatever tripped, the report must never claim inequivalence, never
/// carry a counterexample, and must label exhaustion honestly.
void expect_degraded_honestly(const ClsEquivalenceResult& r,
                              std::uint64_t trip) {
  SCOPED_TRACE("injection at checkpoint " + std::to_string(trip));
  EXPECT_TRUE(r.equivalent) << r.summary();
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.exhaustive, r.verdict == Verdict::kProven);
  EXPECT_TRUE(r.verdict == Verdict::kProven ||
              r.verdict == Verdict::kBounded ||
              r.verdict == Verdict::kExhausted);
  EXPECT_FALSE(r.decided_reason.empty());
}

TEST(BackendCrosscheckFaultSweep, SatDegradesToBoundedOrExhausted) {
  // Retimed (hence equivalent) pair, SAT backend, budget attached. Census
  // first, then trip every single checkpoint the run passes.
  const Netlist a = inverter_pipeline();
  Rng rng(5);
  const RetimeGraph g = RetimeGraph::from_netlist(a);
  SequencedRetiming seq;
  analyze_lag_retiming(a, g, random_legal_lag(g, rng), &seq);
  const Netlist& b = seq.retimed;

  fault_inject::arm(std::uint64_t{1} << 62);
  {
    ResourceBudget budget((ResourceLimits()));
    const ClsEquivalenceResult r =
        run_backend(EquivalenceBackend::kSat, a, b, &budget);
    EXPECT_TRUE(r.equivalent) << r.summary();
  }
  const std::uint64_t total = fault_inject::checkpoints_passed();
  fault_inject::disarm();
  ASSERT_GT(total, 0u) << "SAT run passed no checkpoints; sweep is vacuous";

  for (std::uint64_t n = 1; n <= total; ++n) {
    fault_inject::arm(n);
    ResourceBudget budget((ResourceLimits()));
    ClsEquivalenceResult r;
    ASSERT_NO_THROW(r = run_backend(EquivalenceBackend::kSat, a, b, &budget))
        << "injection at checkpoint " << n;
    fault_inject::disarm();
    expect_degraded_honestly(r, n);
  }
}

TEST(BackendCrosscheckFaultSweep, PortfolioIsNotPoisonedByTrippedEngines) {
  // A fault tripping inside one (or both) portfolio engines must never
  // crash the race, produce a verdict disagreement, or surface a bogus
  // counterexample; the merged report stays honest. Static proof off: the
  // sweep must reach the engines, not a fixpoint short-circuit.
  const Netlist n = toggle_circuit();

  fault_inject::arm(std::uint64_t{1} << 62);
  {
    ResourceBudget budget((ResourceLimits()));
    const ClsEquivalenceResult r = run_backend(
        EquivalenceBackend::kPortfolio, n, n, &budget, /*allow_static=*/false);
    EXPECT_TRUE(r.equivalent) << r.summary();
  }
  const std::uint64_t total = fault_inject::checkpoints_passed();
  fault_inject::disarm();
  ASSERT_GT(total, 0u);

  for (std::uint64_t trip = 1; trip <= total; ++trip) {
    fault_inject::arm(trip);
    ResourceBudget budget((ResourceLimits()));
    ClsEquivalenceResult r;
    ASSERT_NO_THROW(r = run_backend(EquivalenceBackend::kPortfolio, n, n,
                                    &budget, /*allow_static=*/false))
        << "injection at checkpoint " << trip;
    fault_inject::disarm();
    expect_degraded_honestly(r, trip);
  }
}

}  // namespace
}  // namespace rtv
