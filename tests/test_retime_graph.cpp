#include <gtest/gtest.h>

#include "gen/datapath.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/graph.hpp"
#include "test_helpers.hpp"
#include "wd_reference.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;
using testing::toggle_circuit;

TEST(RetimeGraph, ShiftRegisterShape) {
  // in -> L -> L -> L -> out: no combinational vertices, one host->host
  // edge of weight 3.
  const Netlist n = shift_register(3);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  EXPECT_EQ(g.num_vertices(), 2u);  // just the two host sides
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(0).from, RetimeGraph::kHostSource);
  EXPECT_EQ(g.edge(0).to, RetimeGraph::kHostSink);
  EXPECT_EQ(g.edge(0).weight, 3);
  EXPECT_EQ(g.total_weight(), 3);
  g.check_valid();
}

TEST(RetimeGraph, InverterPipeline) {
  const Netlist n = inverter_pipeline();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  EXPECT_EQ(g.num_vertices(), 3u);  // hosts + inverter
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_weight(), 2);
  // Unit delay model: inverter has delay 1.
  const std::uint32_t inv = g.vertex_of(n.find_by_name("inv"));
  EXPECT_EQ(g.delay(inv), 1);
  EXPECT_EQ(g.clock_period(), 1);
}

TEST(RetimeGraph, ToggleHasSelfLoopThroughLatch) {
  const Netlist n = toggle_circuit();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  g.check_valid();
  // The xor -> junction -> xor cycle carries the latch.
  bool found_cycle_edge = false;
  for (const auto& e : g.edges()) {
    if (e.from >= 2 && e.to >= 2 && e.weight == 1) found_cycle_edge = true;
  }
  EXPECT_TRUE(found_cycle_edge);
}

TEST(RetimeGraph, DelayModels) {
  Netlist n;
  const NodeId inv = n.add_gate(CellKind::kNot, 0);
  const NodeId buf = n.add_gate(CellKind::kBuf, 0);
  const NodeId j = n.add_junc(2);
  const NodeId c = n.add_const(false);
  EXPECT_EQ(vertex_delay(n, inv, DelayModel::kUnit), 1);
  EXPECT_EQ(vertex_delay(n, buf, DelayModel::kUnit), 0);
  EXPECT_EQ(vertex_delay(n, j, DelayModel::kUnit), 0);
  EXPECT_EQ(vertex_delay(n, c, DelayModel::kUnit), 0);
  EXPECT_EQ(vertex_delay(n, inv, DelayModel::kZero), 0);
}

TEST(RetimeGraph, ClockPeriodOfUnpipelinedAdder) {
  // A ripple adder with 1 stage: period grows with bit width.
  const RetimeGraph g4 =
      RetimeGraph::from_netlist(pipelined_adder(4, 1));
  const RetimeGraph g8 =
      RetimeGraph::from_netlist(pipelined_adder(8, 1));
  EXPECT_GT(g8.clock_period(), g4.clock_period());
}

TEST(RetimeGraph, PipeliningReducesClockPeriod) {
  const RetimeGraph flat = RetimeGraph::from_netlist(pipelined_adder(8, 1));
  const RetimeGraph piped = RetimeGraph::from_netlist(pipelined_adder(8, 4));
  EXPECT_LT(piped.clock_period(), flat.clock_period());
  EXPECT_GT(piped.total_weight(), flat.total_weight());
}

TEST(RetimeGraph, LegalRetimingChecks) {
  const Netlist n = inverter_pipeline();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const std::uint32_t inv = g.vertex_of(n.find_by_name("inv"));
  std::vector<int> lag(g.num_vertices(), 0);
  EXPECT_TRUE(g.legal_retiming(lag));
  lag[inv] = 1;  // move the output latch back across the inverter
  EXPECT_TRUE(g.legal_retiming(lag));
  lag[inv] = 2;  // would need 2 latches after the input wire: only 1 there
  EXPECT_FALSE(g.legal_retiming(lag));
  lag[inv] = -1;
  EXPECT_TRUE(g.legal_retiming(lag));
  lag[inv] = -2;
  EXPECT_FALSE(g.legal_retiming(lag));
}

TEST(RetimeGraph, RetimedWeightsAndTotals) {
  const Netlist n = inverter_pipeline();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const std::uint32_t inv = g.vertex_of(n.find_by_name("inv"));
  std::vector<int> lag(g.num_vertices(), 0);
  lag[inv] = 1;
  // Register count is preserved for a 1-in/1-out vertex.
  EXPECT_EQ(g.retimed_total_weight(lag), g.total_weight());
}

TEST(RetimeGraph, HostLagMustBeZero) {
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  std::vector<int> lag(g.num_vertices(), 0);
  lag[RetimeGraph::kHostSource] = 1;
  EXPECT_FALSE(g.legal_retiming(lag));
}

TEST(RetimeGraph, DegreeImbalanceSumsToZero) {
  const RetimeGraph g =
      RetimeGraph::from_netlist(pipelined_multiplier(3, 2));
  int sum = 0;
  for (const int a : g.degree_imbalance()) sum += a;
  EXPECT_EQ(sum, 0);
}

TEST(RetimeGraph, CombinationalPathThroughHostIsAcyclic) {
  // and2: PI -> gate -> PO with no latch anywhere; the split host keeps the
  // zero-weight subgraph acyclic.
  const RetimeGraph g = RetimeGraph::from_netlist(testing::and2_circuit());
  EXPECT_EQ(g.clock_period(), 1);
  g.check_valid();
}

TEST(Wd, InverterPipeline) {
  const Netlist n = inverter_pipeline();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const WdMatrices wd = compute_wd(g);
  const std::uint32_t inv = g.vertex_of(n.find_by_name("inv"));
  // host_src -> inv: 1 latch; inv -> host_snk: 1 latch.
  EXPECT_EQ(wd.W(RetimeGraph::kHostSource, inv), 1);
  EXPECT_EQ(wd.W(inv, RetimeGraph::kHostSink), 1);
  EXPECT_EQ(wd.W(RetimeGraph::kHostSource, RetimeGraph::kHostSink), 2);
  EXPECT_EQ(wd.D(RetimeGraph::kHostSource, inv), 1);  // 0 + 1
  // Diagonal: W = 0, D = d(v).
  EXPECT_EQ(wd.W(inv, inv), 0);
  EXPECT_EQ(wd.D(inv, inv), 1);
}

TEST(Wd, UnreachablePairs) {
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  const WdMatrices wd = compute_wd(g);
  // Nothing flows back from the host sink.
  EXPECT_FALSE(wd.reachable(RetimeGraph::kHostSink, RetimeGraph::kHostSource));
}

TEST(Wd, CandidatePeriodsSortedUnique) {
  const RetimeGraph g = RetimeGraph::from_netlist(pipelined_adder(4, 2));
  const auto candidates = compute_wd(g).candidate_periods();
  EXPECT_FALSE(candidates.empty());
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(candidates[i - 1], candidates[i]);
  }
}

TEST(Wd, MinRegisterPathIsChosen) {
  // Two parallel paths u -> v: weight 0 with small delay, weight 1 with
  // large delay. W must pick 0 and D the delay of that path.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId o = n.add_output("o");
  const NodeId j = n.add_junc(2, "split");
  const NodeId g1 = n.add_gate(CellKind::kNot, 0, "fast");
  const NodeId g2 = n.add_gate(CellKind::kNot, 0, "slow");
  const NodeId l = n.add_latch("L");
  const NodeId merge = n.add_gate(CellKind::kAnd, 2, "merge");
  n.connect(a, j);
  n.connect(PortRef(j, 0), PinRef(g1, 0));
  n.connect(PortRef(j, 1), PinRef(g2, 0));
  n.connect(g2, l);
  n.connect(PortRef(g1, 0), PinRef(merge, 0));
  n.connect(PortRef(l, 0), PinRef(merge, 1));
  n.connect(PortRef(merge, 0), PinRef(o, 0));
  n.check_valid(true);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const WdMatrices wd = compute_wd(g);
  const std::uint32_t split = g.vertex_of(n.find_by_name("split"));
  const std::uint32_t m = g.vertex_of(n.find_by_name("merge"));
  EXPECT_EQ(wd.W(split, m), 0);
  EXPECT_EQ(wd.D(split, m), 2);  // split(0) + fast(1) + merge(1)
}

TEST(Wd, CapacityGuard) {
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  EXPECT_THROW(compute_wd(g, /*vertex_cap=*/1), CapacityError);
}

TEST(RetimeGraph, SummaryFormat) {
  const std::string s =
      RetimeGraph::from_netlist(inverter_pipeline()).summary();
  EXPECT_NE(s.find("vertices"), std::string::npos);
  EXPECT_NE(s.find("registers"), std::string::npos);
}

TEST(RetimeGraph, Figure1GraphPeriod) {
  const RetimeGraph g = RetimeGraph::from_netlist(figure1_original());
  // Longest zero-weight path: x -> JX -> OR1 -> AND1 (-> latch). Gates
  // have unit delay, junctions zero: OR1 + AND1 = 2; output path
  // JX->AND_o = 1... the period is 2.
  EXPECT_EQ(g.clock_period(), 2);
}

}  // namespace
}  // namespace rtv
