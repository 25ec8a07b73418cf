#include <gtest/gtest.h>

#include "core/cls_equiv.hpp"
#include "core/safety.hpp"
#include "core/test_preserve.hpp"
#include "core/validator.hpp"
#include "gen/datapath.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;

Netlist small_pipeline_a() { return pipelined_adder(2, 2); }
Netlist small_pipeline_b() { return pipelined_adder(3, 2); }

/// Random-walk toward a random legal lag assignment.
std::vector<int> random_legal_lag(const RetimeGraph& g, Rng& rng,
                                  int attempts = 30) {
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

TEST(ClsEquiv, IdenticalDesignsAreEquivalent) {
  const Netlist n = inverter_pipeline();
  const auto r = check_cls_equivalence(n, n);
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(ClsEquiv, DetectsFunctionalDifference) {
  // inverter pipeline vs buffer pipeline: differ once the X flushes out.
  Netlist buf_version;
  {
    Netlist& n = buf_version;
    const NodeId in = n.add_input("in");
    const NodeId out = n.add_output("out");
    const NodeId l0 = n.add_latch("L0");
    const NodeId l1 = n.add_latch("L1");
    const NodeId b = n.add_gate(CellKind::kBuf, 0, "b");
    n.connect(in, l0);
    n.connect(l0, b);
    n.connect(b, l1);
    n.connect(PortRef(l1, 0), PinRef(out, 0));
  }
  const auto r = check_cls_equivalence(inverter_pipeline(), buf_version);
  EXPECT_FALSE(r.equivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(cls_outputs_match(inverter_pipeline(), buf_version,
                                 *r.counterexample));
  EXPECT_NE(r.summary().find("DISTINGUISHABLE"), std::string::npos);
}

TEST(ClsEquiv, BoundedModeOnWideInputs) {
  // 13 inputs exceeds the exhaustive branching cap -> bounded check.
  Netlist a;
  std::vector<NodeId> ins;
  for (int i = 0; i < 13; ++i) {
    ins.push_back(a.add_input(indexed_name("i", i)));
  }
  const NodeId g = a.add_gate(CellKind::kAnd, 13, "g");
  for (int i = 0; i < 13; ++i) a.connect(ins[i], g, i);
  const NodeId o = a.add_output("o");
  a.connect(PortRef(g, 0), PinRef(o, 0));
  const auto r = check_cls_equivalence(a, a);
  EXPECT_TRUE(r.equivalent);
  EXPECT_FALSE(r.exhaustive);
}

TEST(ClsEquiv, MismatchedInterfacesRejected) {
  EXPECT_THROW(
      check_cls_equivalence(inverter_pipeline(), testing::and2_circuit()),
      InvalidArgument);
}

TEST(ClsEquiv, RetimedRandomCircuitsAlwaysEquivalent) {
  // Corollary 5.3 as a property test: random circuit, random legal
  // retiming, CLS equivalence must hold.
  Rng rng(909);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 14;
  opt.latch_after_gate_probability = 0.3;
  for (int trial = 0; trial < 8; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const std::vector<int> lag = random_legal_lag(g, rng, 40);
    SequencedRetiming seq;
    analyze_lag_retiming(n, g, lag, &seq);
    const auto r = check_cls_equivalence(n, seq.retimed);
    EXPECT_TRUE(r.equivalent) << "trial " << trial << ": " << r.summary();
  }
}

TEST(Safety, SafeMoveSequenceReport) {
  Netlist n = inverter_pipeline();
  const std::vector<RetimingMove> moves{
      {n.find_by_name("inv"), MoveDirection::kForward},
      {n.find_by_name("inv"), MoveDirection::kBackward}};
  Netlist retimed;
  const SafetyReport r = analyze_move_sequence(n, moves, &retimed);
  EXPECT_TRUE(r.safe_replacement_guaranteed);
  EXPECT_EQ(r.delay_bound, 0u);
  EXPECT_EQ(r.stats.total_moves, 2u);
  EXPECT_EQ(retimed.num_latches(), 2u);
}

TEST(Safety, UnsafeMoveSequenceReport) {
  Netlist d = figure1_original();
  const std::vector<RetimingMove> moves{
      {d.find_by_name("J1"), MoveDirection::kForward}};
  const SafetyReport r = analyze_move_sequence(d, moves, nullptr);
  EXPECT_FALSE(r.safe_replacement_guaranteed);
  EXPECT_EQ(r.delay_bound, 1u);
  EXPECT_NE(r.summary().find("C^1"), std::string::npos);
}

TEST(Safety, RepeatedUnsafeMovesRaiseTheBound) {
  // Loop latch -> junction -> inverter -> latch with an observation
  // branch: driving the latch around the loop twice gives the junction two
  // forward moves, so the Thm 4.5 bound k is 2 (each lap also deposits a
  // latch on the observation branch, as lag(J) = -2 predicts).
  Netlist n;
  const NodeId o = n.add_output("o");
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
  const NodeId j = n.add_junc(2, "J");
  const NodeId latch = n.add_latch("L");
  n.connect(PortRef(j, 0), PinRef(inv, 0));
  n.connect(PortRef(inv, 0), PinRef(latch, 0));
  n.connect(PortRef(latch, 0), PinRef(j, 0));
  n.connect(PortRef(j, 1), PinRef(o, 0));
  n.check_valid(true);

  const std::vector<RetimingMove> moves{{j, MoveDirection::kForward},
                                        {inv, MoveDirection::kForward},
                                        {j, MoveDirection::kForward}};
  Netlist retimed;
  const SafetyReport r = analyze_move_sequence(n, moves, &retimed);
  EXPECT_EQ(r.delay_bound, 2u);
  EXPECT_EQ(r.stats.forward_across_non_justifiable, 2u);
  EXPECT_FALSE(r.safe_replacement_guaranteed);
  retimed.check_valid(true);
  EXPECT_EQ(retimed.num_latches(), 3u);  // loop 1 + branch 2
}

TEST(Validator, SafeRetimingValidates) {
  const Netlist n = inverter_pipeline();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  std::vector<int> lag(g.num_vertices(), 0);
  lag[g.vertex_of(n.find_by_name("inv"))] = 1;
  const RetimingValidation v = validate_retiming(n, g, lag);
  EXPECT_TRUE(v.safety.safe_replacement_guaranteed);
  EXPECT_TRUE(v.cls.equivalent);
  ASSERT_TRUE(v.stg_checked);
  EXPECT_TRUE(v.implication);
  EXPECT_TRUE(v.safe_replacement);
  EXPECT_EQ(v.min_delay_implication, 0);
  EXPECT_TRUE(v.theorems_hold);
}

TEST(Validator, UnsafeRetimingStillSatisfiesTheorems) {
  const Netlist d = figure1_original();
  const RetimeGraph g = RetimeGraph::from_netlist(d);
  std::vector<int> lag(g.num_vertices(), 0);
  lag[g.vertex_of(d.find_by_name("J1"))] = -1;
  const RetimingValidation v = validate_retiming(d, g, lag);
  EXPECT_FALSE(v.safety.safe_replacement_guaranteed);
  EXPECT_EQ(v.safety.delay_bound, 1u);
  EXPECT_TRUE(v.cls.equivalent);  // Cor 5.3
  ASSERT_TRUE(v.stg_checked);
  EXPECT_FALSE(v.implication);       // Section 2.1
  EXPECT_FALSE(v.safe_replacement);  // Section 2.1
  EXPECT_EQ(v.min_delay_implication, 1);
  EXPECT_TRUE(v.theorems_hold);
  EXPECT_NE(v.summary().find("⋢"), std::string::npos);
}

TEST(Validator, RandomRetimingsNeverFalsifyThePaper) {
  Rng rng(2468);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 12;
  opt.latch_after_gate_probability = 0.35;
  int validated = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const RetimingValidation v =
        validate_retiming(n, g, random_legal_lag(g, rng));
    EXPECT_TRUE(v.theorems_hold) << "trial " << trial << "\n" << v.summary();
    if (v.stg_checked) ++validated;
  }
  EXPECT_GT(validated, 0);
}

TEST(Validator, MinAreaRetimingValidates) {
  Rng rng(1357);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 5;
  opt.num_gates = 14;
  opt.latch_after_gate_probability = 0.3;
  const Netlist n = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const MinAreaResult area = min_area_retime(g);
  const RetimingValidation v = validate_retiming(n, g, area.lag);
  EXPECT_TRUE(v.theorems_hold) << v.summary();
  EXPECT_TRUE(v.cls.equivalent);
}

TEST(Validator, MinPeriodRetimingValidates) {
  Rng rng(7531);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 12;
  opt.latch_after_gate_probability = 0.4;
  const Netlist n = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const RetimingSolution sol = min_period_retime_feas(g);
  const RetimingValidation v = validate_retiming(n, g, sol.lag);
  EXPECT_TRUE(v.theorems_hold) << v.summary();
  EXPECT_TRUE(v.cls.equivalent);
}

TEST(TestPreserve, RequiresCombinationalFaultSite) {
  const Netlist d = figure1_original();
  const Netlist c = figure1_retimed();
  const Fault on_latch{PortRef(d.find_by_name("L"), 0), true};
  EXPECT_THROW(check_test_preservation(d, c, on_latch,
                                       bits_seq_from_string("0.1"), 1),
               InvalidArgument);
}

TEST(TestPreserve, SummaryStates) {
  const Netlist d = figure1_original();
  const Netlist c = figure1_retimed();
  const Fault f = fault_on(d, kFigure3FaultGate, 0, true);
  const auto r =
      check_test_preservation(d, c, f, bits_seq_from_string("0.1"), 1);
  const std::string s = r.summary();
  EXPECT_NE(s.find("original: detected"), std::string::npos);
  EXPECT_NE(s.find("retimed: missed"), std::string::npos);
  EXPECT_NE(s.find("holds"), std::string::npos);
}

TEST(TestPreserve, RandomizedTheorem46) {
  // Pipelined datapaths (feed-forward, so constant tests flush them to
  // definite outputs), random retimings, faults on every combinational
  // cell: whenever a test detects the fault in D, it must detect it in
  // C^k with k = total forward moves (Thm 4.6).
  Rng rng(8642);
  int exercised = 0;
  for (const Netlist& n : {small_pipeline_a(), small_pipeline_b()}) {
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    SequencedRetiming seq;
    analyze_lag_retiming(n, g, random_legal_lag(g, rng, 40), &seq);
    if (seq.retimed.num_latches() > 18) continue;  // exact-sim capacity
    const unsigned k = static_cast<unsigned>(seq.stats.forward_moves);
    const auto faults = collapse_faults(n);
    for (std::size_t i = 0; i < faults.size(); i += 5) {
      if (!is_combinational(n.kind(faults[i].site.node))) continue;
      if (seq.retimed.sinks(faults[i].site).empty()) continue;
      // Constant random input held for 8 cycles flushes the pipeline.
      BitsSeq test;
      Bits in(n.primary_inputs().size());
      for (auto& bit : in) bit = rng.coin();
      for (int t = 0; t < 8; ++t) test.push_back(in);
      const auto r =
          check_test_preservation(n, seq.retimed, faults[i], test, k);
      EXPECT_TRUE(r.theorem_holds())
          << " fault " << describe(n, faults[i]) << " " << r.summary();
      if (r.detects_in_original) ++exercised;
    }
  }
  EXPECT_GT(exercised, 0);
}

}  // namespace
}  // namespace rtv
