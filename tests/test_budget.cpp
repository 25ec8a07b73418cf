// Resource governance (util/budget.hpp): the budget primitive itself, and
// the degradation contract of every governed entry point — a blown budget
// yields an honestly-labeled partial result (never a crash, never a result
// masquerading as a proof).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bdd/symbolic.hpp"
#include "core/cls_equiv.hpp"
#include "core/flow.hpp"
#include "core/validator.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "retime/graph.hpp"
#include "stg/stg.hpp"
#include "test_helpers.hpp"
#include "util/budget.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::and2_circuit;
using testing::inverter_pipeline;
using testing::toggle_circuit;

// ---- ResourceBudget primitive ---------------------------------------------

TEST(ResourceBudget, UnlimitedBudgetNeverBlows) {
  ResourceBudget b;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.checkpoint("test/site"));
  EXPECT_TRUE(b.ok());
  EXPECT_FALSE(b.exhausted());
  const ResourceUsage u = b.usage();
  EXPECT_EQ(u.steps, 1000u);
  EXPECT_FALSE(u.exhausted);
  EXPECT_FALSE(u.blown.has_value());
}

TEST(ResourceBudget, StepQuotaBlowsAndFailsFast) {
  ResourceLimits limits;
  limits.step_quota = 2;
  ResourceBudget b(limits);
  EXPECT_TRUE(b.checkpoint("test/one"));
  EXPECT_TRUE(b.checkpoint("test/two"));
  EXPECT_FALSE(b.checkpoint("test/three"));
  EXPECT_TRUE(b.exhausted());
  ASSERT_TRUE(b.blown().has_value());
  EXPECT_EQ(*b.blown(), ResourceKind::kSteps);
  // Every later probe fails fast, whatever the site.
  EXPECT_FALSE(b.checkpoint("test/other"));
  const ResourceUsage u = b.usage();
  EXPECT_TRUE(u.exhausted);
  EXPECT_EQ(u.blown, ResourceKind::kSteps);
  EXPECT_NE(u.summary().find("EXHAUSTED"), std::string::npos);
}

TEST(ResourceBudget, CheckpointOrThrowThrowsResourceExhausted) {
  ResourceLimits limits;
  limits.step_quota = 1;
  ResourceBudget b(limits);
  b.checkpoint_or_throw("test/ok");
  try {
    b.checkpoint_or_throw("test/blow");
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.kind(), ResourceKind::kSteps);
  }
}

TEST(ResourceBudget, DeadlineBlowsAsWallClock) {
  ResourceLimits limits;
  limits.time_budget_ms = 1;
  ResourceBudget b(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(b.checkpoint("test/late"));
  ASSERT_TRUE(b.blown().has_value());
  EXPECT_EQ(*b.blown(), ResourceKind::kWallClock);
  EXPECT_GE(b.usage().wall_ms, 1.0);
}

TEST(ResourceBudget, CancellationTokenFiresNextCheckpoint) {
  CancellationToken cancel;
  ResourceBudget b(ResourceLimits{}, cancel);
  EXPECT_TRUE(b.checkpoint("test/before"));
  cancel.request_cancel();
  EXPECT_FALSE(b.checkpoint("test/after"));
  EXPECT_EQ(*b.blown(), ResourceKind::kCancelled);
}

TEST(ResourceBudget, CancellationTokenCopiesShareOneFlag) {
  CancellationToken original;
  CancellationToken copy = original;
  copy.request_cancel();
  EXPECT_TRUE(original.cancelled());
}

TEST(ResourceBudget, PairLimitBlowsAsStatePairs) {
  ResourceLimits limits;
  limits.pair_limit = 10;
  ResourceBudget b(limits);
  EXPECT_TRUE(b.note_pairs(5));
  EXPECT_TRUE(b.note_pairs(10));  // at the cap is still within budget
  EXPECT_FALSE(b.note_pairs(11));
  EXPECT_EQ(*b.blown(), ResourceKind::kStatePairs);
  EXPECT_EQ(b.usage().state_pairs, 11u);
}

TEST(ResourceBudget, MarkExhaustedFirstReasonWins) {
  ResourceBudget b;
  b.mark_exhausted(ResourceKind::kBddNodes);
  b.mark_exhausted(ResourceKind::kSteps);
  EXPECT_EQ(*b.blown(), ResourceKind::kBddNodes);
  EXPECT_FALSE(b.checkpoint("test/after-mark"));
}

TEST(ResourceBudget, DefaultNodeLimitIsTheSharedConstant) {
  EXPECT_EQ(ResourceLimits{}.bdd_node_limit, kDefaultBddNodeLimit);
  EXPECT_EQ(kDefaultBddNodeLimit, std::size_t{1} << 22);
}

TEST(ResourceBudget, VerdictAndKindNames) {
  EXPECT_STREQ(to_string(Verdict::kProven), "proven");
  EXPECT_STREQ(to_string(Verdict::kBounded), "bounded");
  EXPECT_STREQ(to_string(Verdict::kExhausted), "exhausted");
  EXPECT_STREQ(to_string(ResourceKind::kWallClock), "wall-clock deadline");
  EXPECT_STREQ(to_string(ResourceKind::kInjected), "fault injection");
}

// ---- Fault-injection harness ----------------------------------------------

TEST(FaultInject, TripsTheArmedCheckpointAndRecordsSites) {
  fault_inject::arm(3);
  ResourceBudget b;
  EXPECT_TRUE(b.checkpoint("inject/a"));
  EXPECT_TRUE(b.checkpoint("inject/b"));
  EXPECT_FALSE(b.checkpoint("inject/c"));  // third checkpoint trips
  EXPECT_EQ(*b.blown(), ResourceKind::kInjected);
  EXPECT_EQ(fault_inject::checkpoints_passed(), 3u);
  const auto sites = fault_inject::sites_seen();
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0], "inject/a");
  EXPECT_EQ(sites[2], "inject/c");
  fault_inject::disarm();
  EXPECT_FALSE(fault_inject::enabled());
  // A fresh budget is unaffected once disarmed.
  ResourceBudget c;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(c.checkpoint("inject/after"));
}

// ---- Governed entry points -------------------------------------------------

/// in -> latch t -> out, so definite inputs become definite outputs one
/// cycle later (CLS-distinguishable designs, multiple reachable pairs).
Netlist follower_circuit(bool invert) {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  n.connect(PortRef(in, 0), PinRef(t, 0));
  if (invert) {
    const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
    n.connect(t, inv);
    n.connect(PortRef(inv, 0), PinRef(out, 0));
  } else {
    n.connect(PortRef(t, 0), PinRef(out, 0));
  }
  n.junctionize();
  n.check_valid(true);
  return n;
}

TEST(BudgetedCls, ProvenWithoutLimitsKeepsInvariant) {
  const Netlist n = toggle_circuit();
  ResourceBudget budget;  // unlimited, but records usage
  const ClsEquivalenceResult r = check_cls_equivalence(n, n, {}, &budget);
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.verdict, Verdict::kProven);
  EXPECT_FALSE(r.usage.exhausted);
  EXPECT_GT(r.usage.steps, 0u);
}

TEST(BudgetedCls, StepQuotaYieldsExhaustedPartialReport) {
  // The pipeline's pair BFS needs several pair dequeues (definite values
  // flow in from the input), so a one-step quota blows mid-search.
  const Netlist n = inverter_pipeline();
  ResourceLimits limits;
  limits.step_quota = 1;
  ResourceBudget budget(limits);
  const ClsEquivalenceResult r = check_cls_equivalence(n, n, {}, &budget);
  EXPECT_EQ(r.verdict, Verdict::kExhausted);
  EXPECT_FALSE(r.exhaustive);
  // "No difference observed" — an exhausted report may claim equivalence
  // seen so far but never inequivalence, and never a proof.
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.usage.exhausted);
  EXPECT_EQ(r.summary().rfind("CLS-UNDECIDED (budget exhausted", 0), 0u)
      << r.summary();
}

TEST(BudgetedCls, MaxPairsFallsBackToBoundedMidSearch) {
  // inverter_pipeline has > 1 reachable CLS state pair (definite values
  // flow in from the input), so max_pairs = 1 trips mid-BFS.
  const Netlist n = inverter_pipeline();
  ClsEquivOptions opt;
  opt.max_pairs = 1;
  opt.random_sequences = 16;
  opt.random_length = 8;
  const ClsEquivalenceResult r = check_cls_equivalence(n, n, opt);
  EXPECT_TRUE(r.equivalent);
  EXPECT_FALSE(r.exhaustive);  // bounded evidence, not a theorem
  EXPECT_EQ(r.verdict, Verdict::kBounded);
  EXPECT_NE(r.summary().find("bounded"), std::string::npos);
}

TEST(BudgetedCls, BoundedFallbackStillFindsCounterexamples) {
  // follower vs inverted follower differ definitively one cycle after any
  // definite input; max_pairs = 1 forces the bounded path to find it.
  const Netlist a = follower_circuit(false);
  const Netlist b = follower_circuit(true);
  ClsEquivOptions opt;
  opt.max_pairs = 1;
  opt.random_sequences = 32;
  opt.random_length = 8;
  const ClsEquivalenceResult r = check_cls_equivalence(a, b, opt);
  EXPECT_FALSE(r.equivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(cls_outputs_match(a, b, *r.counterexample));
  // A counterexample is definitive even in bounded mode, but the verdict
  // stays honest about how it was found.
  EXPECT_EQ(r.verdict, Verdict::kBounded);
  EXPECT_FALSE(r.exhaustive);
}

TEST(BudgetedCls, BudgetPairCapIsExhaustionNotFallback) {
  // The *budget's* pair cap is a resource limit: blowing it marks the whole
  // budget exhausted, so falling back to bounded mode (which would share
  // the dead budget) must not happen.
  const Netlist n = inverter_pipeline();
  ResourceLimits limits;
  limits.pair_limit = 1;
  ResourceBudget budget(limits);
  const ClsEquivalenceResult r = check_cls_equivalence(n, n, {}, &budget);
  EXPECT_EQ(r.verdict, Verdict::kExhausted);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_TRUE(r.equivalent);
  EXPECT_EQ(*budget.blown(), ResourceKind::kStatePairs);
}

TEST(BudgetedStg, ExtractionThrowsResourceExhausted) {
  const Netlist n = toggle_circuit();
  ResourceLimits limits;
  limits.step_quota = 1;
  ResourceBudget budget(limits);
  EXPECT_THROW(Stg::extract(n, kDefaultStgEntryCap, &budget),
               ResourceExhausted);
}

TEST(BudgetedStg, UngovernedExtractionStillWorks) {
  const Stg stg = Stg::extract(toggle_circuit());
  EXPECT_EQ(stg.num_states(), 2u);
  EXPECT_EQ(stg.num_inputs(), 2u);
}

TEST(BudgetedBdd, SymbolicMachineThrowsWhenBudgetBlown) {
  ResourceLimits limits;
  limits.step_quota = 1;
  ResourceBudget budget(limits);
  budget.checkpoint("test/consume");  // quota used up before construction
  EXPECT_THROW(
      {
        SymbolicMachine machine(inverter_pipeline(), kDefaultBddNodeLimit,
                                &budget);
        machine.reachable(machine.state_cube(Bits{0, 0}));
      },
      ResourceExhausted);
}

TEST(BudgetedValidate, ExhaustedBudgetSkipsStgAndLabelsVerdict) {
  const Netlist n = toggle_circuit();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  ValidationOptions opt;
  opt.budget.step_quota = 1;
  const RetimingValidation v =
      validate_retiming(n, g, std::vector<int>(g.num_vertices(), 0), opt);
  EXPECT_EQ(v.verdict, Verdict::kExhausted);
  EXPECT_TRUE(v.usage.exhausted);
  EXPECT_FALSE(v.stg_checked);
  EXPECT_TRUE(v.stg_budget_exhausted);
  EXPECT_NE(v.summary().find("exhausted"), std::string::npos);
}

TEST(BudgetedValidate, UnlimitedBudgetStaysProven) {
  const Netlist n = toggle_circuit();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const RetimingValidation v =
      validate_retiming(n, g, std::vector<int>(g.num_vertices(), 0), {});
  EXPECT_TRUE(v.theorems_hold);
  EXPECT_TRUE(v.cls.equivalent);
  EXPECT_EQ(v.verdict, Verdict::kProven);
  EXPECT_FALSE(v.usage.exhausted);
}

TEST(BudgetedValidate, CancellationDegradesTheValidation) {
  const Netlist n = toggle_circuit();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  ValidationOptions opt;
  opt.cancel.request_cancel();  // cancelled before it even starts
  const RetimingValidation v =
      validate_retiming(n, g, std::vector<int>(g.num_vertices(), 0), opt);
  EXPECT_EQ(v.verdict, Verdict::kExhausted);
  EXPECT_EQ(v.usage.blown, ResourceKind::kCancelled);
}

TEST(BudgetedFlow, ExhaustedGateIsNeverAccepted) {
  FlowOptions opt;
  opt.budget.step_quota = 1;
  const FlowReport r = run_synthesis_flow(toggle_circuit(), opt);
  EXPECT_EQ(r.verdict, Verdict::kExhausted);
  EXPECT_FALSE(r.accepted());
  EXPECT_NE(r.summary().find("UNDECIDED"), std::string::npos);
  EXPECT_EQ(r.summary().find("ACCEPTED"), std::string::npos);
}

TEST(BudgetedFlow, UnlimitedFlowStillAccepts) {
  const FlowReport r = run_synthesis_flow(toggle_circuit(), {});
  EXPECT_TRUE(r.accepted());
  EXPECT_NE(r.verdict, Verdict::kExhausted);
  EXPECT_NE(r.summary().find("ACCEPTED"), std::string::npos);
}

TEST(BudgetedFaultSim, StepQuotaLeavesFaultsSkipped) {
  const Netlist n = toggle_circuit();
  const std::vector<Fault> faults = collapse_faults(n);
  ASSERT_FALSE(faults.empty());
  std::vector<BitsSeq> tests;
  Rng rng(7);
  for (int s = 0; s < 8; ++s) {
    BitsSeq seq;
    for (int t = 0; t < 4; ++t) seq.push_back(Bits{rng.coin()});
    tests.push_back(seq);
  }
  FaultSimOptions opt;
  opt.mode = FaultSimMode::kExact;
  opt.threads = 1;
  opt.budget.step_quota = 1;
  const FaultSimResult r = fault_simulate(n, faults, tests, opt);
  EXPECT_FALSE(r.complete);
  EXPECT_GT(r.faults_skipped, 0u);
  EXPECT_TRUE(r.usage.exhausted);
  // Undecided faults count as undetected, so coverage is a lower bound.
  EXPECT_LE(r.num_detected + r.faults_skipped, faults.size());

  // The same run without a budget completes.
  FaultSimOptions unlimited;
  unlimited.mode = FaultSimMode::kExact;
  unlimited.threads = 1;
  const FaultSimResult full = fault_simulate(n, faults, tests, unlimited);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.faults_skipped, 0u);
  EXPECT_GE(full.num_detected, r.num_detected);
}

TEST(BudgetedFaultSim, CancellationStopsTheEngine) {
  const Netlist n = toggle_circuit();
  const std::vector<Fault> faults = collapse_faults(n);
  std::vector<BitsSeq> tests{BitsSeq{Bits{1}, Bits{0}, Bits{1}}};
  FaultSimOptions opt;
  opt.mode = FaultSimMode::kCls;
  opt.threads = 2;
  opt.cancel.request_cancel();
  const FaultSimResult r = fault_simulate(n, faults, tests, opt);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.faults_skipped, faults.size());
  EXPECT_EQ(r.usage.blown, ResourceKind::kCancelled);
}

TEST(BudgetedCls, CombinationalDesignsUnaffectedByGenerousBudget) {
  // Sanity: a governed run with room to spare matches the ungoverned one.
  const Netlist a = and2_circuit();
  ResourceLimits limits;
  limits.step_quota = 1u << 20;
  ResourceBudget budget(limits);
  const ClsEquivalenceResult governed = check_cls_equivalence(a, a, {}, &budget);
  const ClsEquivalenceResult plain = check_cls_equivalence(a, a);
  EXPECT_EQ(governed.equivalent, plain.equivalent);
  EXPECT_EQ(governed.exhaustive, plain.exhaustive);
  EXPECT_EQ(governed.verdict, plain.verdict);
}

}  // namespace
}  // namespace rtv
