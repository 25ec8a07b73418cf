// Tests for the synthesis-flow driver (core/flow) and the trim_dangling
// pass supporting it.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "sim/binary_sim.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

TEST(TrimDangling, RemovesFullyDanglingNode) {
  Netlist n = testing::and2_circuit();
  const NodeId g = n.add_gate(CellKind::kOr, 2, "dangle");
  n.connect(n.primary_inputs()[0], g, 0);
  n.connect(n.primary_inputs()[1], g, 1);
  n.junctionize();
  EXPECT_GE(n.trim_dangling(), 1u);
  EXPECT_FALSE(n.find_by_name("dangle").valid());
  n.compacted().check_valid(true);
}

TEST(TrimDangling, ShrinksJunction) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId o1 = n.add_output("o1");
  const NodeId o2 = n.add_output("o2");
  const NodeId j = n.add_junc(3, "j");
  n.connect(a, j);
  n.connect(PortRef(j, 0), PinRef(o1, 0));
  n.connect(PortRef(j, 2), PinRef(o2, 0));
  // Branch 1 dangles: the junction shrinks to width 2.
  EXPECT_EQ(n.trim_dangling(), 1u);
  const Netlist c = n.compacted();
  c.check_valid(true);
  const NodeId j2 = c.find_by_name("j");
  ASSERT_TRUE(j2.valid());
  EXPECT_EQ(c.num_ports(j2), 2u);
}

TEST(TrimDangling, DissolvesWidthOneJunction) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId o = n.add_output("o");
  const NodeId j = n.add_junc(2, "j");
  n.connect(a, j);
  n.connect(PortRef(j, 1), PinRef(o, 0));
  EXPECT_EQ(n.trim_dangling(), 1u);
  EXPECT_EQ(n.driver(PinRef(o, 0)), PortRef(a, 0));
}

TEST(TrimDangling, CascadesThroughChains) {
  // dead gate <- dead latch: both disappear once the head port dangles.
  Netlist n = testing::and2_circuit();
  const NodeId g = n.add_gate(CellKind::kNot, 0, "g");
  const NodeId l = n.add_latch("l");
  n.connect(n.primary_inputs()[0], g, 0);
  n.connect(g, l);
  n.junctionize();
  EXPECT_GE(n.trim_dangling(), 2u);
  EXPECT_EQ(n.num_latches(), 0u);
  n.compacted().check_valid(true);
}

TEST(TrimDangling, KeepsFullyConnectedDesignsIntact) {
  Netlist n = figure1_original();
  EXPECT_EQ(n.trim_dangling(), 0u);
}

TEST(Flow, MinAreaOnPipelineAccepted) {
  const Netlist n = pipelined_adder(3, 2);
  FlowOptions opt;
  opt.objective = FlowOptions::Objective::kMinArea;
  opt.verify.explicit_opts.max_branching = 1;  // bounded CLS check
  const FlowReport r = run_synthesis_flow(n, opt);
  EXPECT_TRUE(r.accepted()) << r.summary();
  EXPECT_LE(r.registers_after, r.registers_before);
  r.optimized.check_valid(true);
}

TEST(Flow, MinPeriodOnPipelineAccepted) {
  const Netlist n = pipelined_adder(3, 3);
  FlowOptions opt;
  opt.objective = FlowOptions::Objective::kMinPeriod;
  opt.verify.explicit_opts.max_branching = 1;  // bounded CLS check: pipelines explode the BFS
  const FlowReport r = run_synthesis_flow(n, opt);
  EXPECT_TRUE(r.accepted()) << r.summary();
  EXPECT_LE(r.period_after, r.period_before);
}

TEST(Flow, MinAreaAtMinPeriodMeetsBothGoals) {
  for (const Netlist& n :
       {pipelined_adder(3, 2), testing::above_wd_cap_design()}) {
    FlowOptions fastest;
    fastest.objective = FlowOptions::Objective::kMinPeriod;
    fastest.verify.explicit_opts.max_branching = 1;  // bounded CLS check
    const FlowReport fast = run_synthesis_flow(n, fastest);

    FlowOptions both;
    both.objective = FlowOptions::Objective::kMinAreaAtMinPeriod;
    both.verify.explicit_opts.max_branching = 1;
    const FlowReport r = run_synthesis_flow(n, both);
    EXPECT_TRUE(r.accepted()) << r.summary();
    EXPECT_EQ(r.period_after, fast.period_after);
    EXPECT_LE(r.registers_after, fast.registers_after);
  }
}

TEST(Flow, CleanupOnlyFlow) {
  Netlist n = testing::toggle_circuit();
  // Inject a constant-fed cone that cleanup should erase.
  const NodeId c = n.add_const(false, "zero");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "gz");
  const NodeId po = n.add_output("dead_po");
  n.connect(c, g, 0);
  n.connect(n.primary_inputs()[0], g, 1);
  n.connect(PortRef(g, 0), PinRef(po, 0));
  n.junctionize();
  FlowOptions opt;
  opt.objective = FlowOptions::Objective::kNone;
  const FlowReport r = run_synthesis_flow(n, opt);
  EXPECT_TRUE(r.accepted()) << r.summary();
  EXPECT_LT(r.gates_after, r.gates_before + 1);  // AND gate gone
  // dead_po still exists and is constant 0.
  BinarySimulator sim(r.optimized);
  sim.set_state(Bits(r.optimized.num_latches(), 0));
  const Bits out = sim.step(Bits(r.optimized.primary_inputs().size(), 1));
  EXPECT_EQ(out[1], 0);
}

TEST(Flow, S27WithRedundancyRemoval) {
  FlowOptions opt;
  opt.objective = FlowOptions::Objective::kMinArea;
  opt.redundancy_removal = true;
  const FlowReport r = run_synthesis_flow(iscas_s27(), opt);
  EXPECT_TRUE(r.accepted()) << r.summary();
  r.optimized.check_valid(true);
}

TEST(Flow, RandomCircuitsAlwaysAccepted) {
  Rng rng(515253);
  RandomCircuitOptions gen;
  gen.num_inputs = 3;
  gen.num_outputs = 3;
  gen.num_gates = 20;
  gen.num_latches = 4;
  gen.latch_after_gate_probability = 0.3;
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist n = random_netlist(gen, rng);
    for (const auto objective :
         {FlowOptions::Objective::kMinArea, FlowOptions::Objective::kMinPeriod,
          FlowOptions::Objective::kMinAreaAtMinPeriod}) {
      FlowOptions opt;
      opt.objective = objective;
      const FlowReport r = run_synthesis_flow(n, opt);
      EXPECT_TRUE(r.accepted())
          << "trial " << trial << "\n" << r.summary();
      r.optimized.check_valid(true);
    }
  }
}

TEST(Flow, SummaryMentionsVerdict) {
  const FlowReport r = run_synthesis_flow(figure1_original());
  EXPECT_NE(r.summary().find("ACCEPTED"), std::string::npos);
}

}  // namespace
}  // namespace rtv
