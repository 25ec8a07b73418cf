#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/apply.hpp"
#include "retime/graph.hpp"
#include "retime/mcmf.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "stg/stg.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "wd_reference.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;

/// Brute force over lag vectors in [-bound, bound]^(V-2): returns the best
/// (min) value of `objective` over legal retimings, or nullopt.
std::optional<std::int64_t> brute_force_best(
    const RetimeGraph& g, int bound,
    const std::function<std::optional<std::int64_t>(const std::vector<int>&)>&
        objective) {
  const std::uint32_t free_vertices = g.num_vertices() - 2;
  if (free_vertices > 6) return std::nullopt;  // keep the search tiny
  std::vector<int> lag(g.num_vertices(), 0);
  std::optional<std::int64_t> best;
  const std::uint64_t radix = 2 * bound + 1;
  std::uint64_t total = 1;
  for (std::uint32_t i = 0; i < free_vertices; ++i) total *= radix;
  for (std::uint64_t code = 0; code < total; ++code) {
    std::uint64_t c = code;
    for (std::uint32_t i = 0; i < free_vertices; ++i) {
      lag[2 + i] = static_cast<int>(c % radix) - bound;
      c /= radix;
    }
    if (!g.legal_retiming(lag)) continue;
    const auto value = objective(lag);
    if (value && (!best || *value < *best)) best = value;
  }
  return best;
}

RetimeGraph small_random_graph(Rng& rng, Netlist& keep_alive) {
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_outputs = 1;
  opt.num_gates = 4;
  opt.num_latches = 3;
  opt.max_fanin = 2;
  keep_alive = random_netlist(opt, rng);
  return RetimeGraph::from_netlist(keep_alive);
}

TEST(MinPeriod, InverterPipelineIsAlreadyOptimal) {
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  const RetimingSolution opt = min_period_retime_opt(g);
  const RetimingSolution feas = min_period_retime_feas(g);
  EXPECT_EQ(opt.period, 1);
  EXPECT_EQ(feas.period, 1);
}

TEST(MinPeriod, RetimingFixesUnbalancedChain) {
  // PI -> g1 -> g2 -> g3 -> L -> PO: period 3; retiming can spread the
  // single latch to achieve period... the latch can move to any cut, best
  // split is 2 (delay ceil(3/2)).
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId o = n.add_output("o");
  NodeId prev = a;
  for (int i = 0; i < 3; ++i) {
    const NodeId g = n.add_gate(CellKind::kNot, 0, indexed_name("g", i));
    n.connect(prev, g);
    prev = g;
  }
  const NodeId l = n.add_latch("L");
  n.connect(prev, l);
  n.connect(PortRef(l, 0), PinRef(o, 0));
  n.check_valid(true);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  EXPECT_EQ(g.clock_period(), 3);
  const RetimingSolution opt = min_period_retime_opt(g);
  EXPECT_EQ(opt.period, 2);
  EXPECT_TRUE(g.legal_retiming(opt.lag));
  const RetimingSolution feas = min_period_retime_feas(g);
  EXPECT_EQ(feas.period, 2);
}

TEST(MinPeriod, OptAndFeasAgreeOnRandomCircuits) {
  Rng rng(123);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_latches = 6;
  opt.num_gates = 30;
  opt.latch_after_gate_probability = 0.4;
  for (int trial = 0; trial < 15; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const RetimingSolution a = min_period_retime_opt(g);
    const RetimingSolution b = min_period_retime_feas(g);
    EXPECT_EQ(a.period, b.period) << "trial " << trial;
    // Both return the greatest solution <= 0 of the exact [LS83] system.
    EXPECT_EQ(a.lag, b.lag) << "trial " << trial;
    EXPECT_LE(a.period, g.clock_period());
    EXPECT_TRUE(g.legal_retiming(a.lag));
    EXPECT_TRUE(g.legal_retiming(b.lag));
    EXPECT_EQ(g.clock_period(a.lag), a.period);
  }
}

TEST(MinPeriod, FeasReachesOptimumOnPipelinedMultiplier14x2) {
  // 28 is the optimum min_period_retime_opt computes (W/D over 1,737
  // vertices, too slow for a unit test), with the same lags. Without cuts
  // shared across the binary search, FEAS probes at feasible periods ran
  // out of rounds and the search settled at 57.
  const RetimeGraph g = RetimeGraph::from_netlist(pipelined_multiplier(14, 2));
  const RetimingSolution feas = min_period_retime_feas(g);
  EXPECT_EQ(feas.period, 28);
  EXPECT_TRUE(g.legal_retiming(feas.lag));
  EXPECT_EQ(g.clock_period(feas.lag), 28);
}

TEST(MinPeriod, MatchesBruteForceOnTinyCircuits) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    Netlist n;
    const RetimeGraph g = small_random_graph(rng, n);
    const auto best = brute_force_best(
        g, 2, [&](const std::vector<int>& lag) -> std::optional<std::int64_t> {
          return g.clock_period(lag);
        });
    if (!best) continue;
    const RetimingSolution opt = min_period_retime_opt(g);
    EXPECT_EQ(opt.period, *best) << "trial " << trial;
  }
}

TEST(MinPeriod, InfeasiblePeriodReturnsNullopt) {
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  const WdMatrices wd = compute_wd(g);
  EXPECT_FALSE(feasible_retiming_opt(g, wd, 0).has_value());
  EXPECT_FALSE(feasible_retiming_feas(g, 0).has_value());
}

TEST(MinPeriod, PipelinedAdderReachesBalancedPeriod) {
  // An 8-bit adder with 4 register boundaries: retiming should reach a
  // strictly smaller period than the as-built circuit.
  const Netlist n = pipelined_adder(8, 4);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const RetimingSolution opt = min_period_retime_feas(g);
  EXPECT_LE(opt.period, g.clock_period());
  EXPECT_GE(opt.period, 1);
}

TEST(Mcmf, SimplePath) {
  MinCostFlow f(3);
  const auto a1 = f.add_arc(0, 1, 5, 2);
  const auto a2 = f.add_arc(1, 2, 3, 1);
  const auto r = f.solve(0, 2, 10);
  EXPECT_EQ(r.flow, 3);
  EXPECT_EQ(r.cost, 9);
  EXPECT_EQ(f.flow_on(a1), 3);
  EXPECT_EQ(f.flow_on(a2), 3);
}

TEST(Mcmf, PrefersCheaperPath) {
  MinCostFlow f(4);
  f.add_arc(0, 1, 1, 10);
  f.add_arc(0, 2, 1, 1);
  f.add_arc(1, 3, 1, 0);
  f.add_arc(2, 3, 1, 0);
  const auto r = f.solve(0, 3, 1);
  EXPECT_EQ(r.flow, 1);
  EXPECT_EQ(r.cost, 1);
}

TEST(Mcmf, NegativeCostsViaBellmanFord) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 2, -5);
  f.add_arc(1, 2, 2, 3);
  const auto r = f.solve(0, 2, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, -4);
}

TEST(Mcmf, DisconnectedReturnsPartialFlow) {
  MinCostFlow f(4);
  f.add_arc(0, 1, 1, 1);
  const auto r = f.solve(0, 3, 5);
  EXPECT_EQ(r.flow, 0);
}

TEST(MinArea, InverterPipelineKeepsRegisterCount) {
  // Every vertex is 1-in/1-out: retiming cannot reduce registers.
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  const MinAreaResult r = min_area_retime(g);
  EXPECT_EQ(r.registers_before, 2);
  EXPECT_EQ(r.registers_after, 2);
  EXPECT_TRUE(g.legal_retiming(r.lag));
}

TEST(MinArea, SharesLatchesAcrossJoin) {
  // Two parallel input wires each with a latch joining at an AND: a
  // backward move... no: forward move across AND replaces 2 latches by 1.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId o = n.add_output("o");
  const NodeId la = n.add_latch("La");
  const NodeId lb = n.add_latch("Lb");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "g");
  n.connect(a, la);
  n.connect(b, lb);
  n.connect(la, g, 0);
  n.connect(lb, g, 1);
  n.connect(PortRef(g, 0), PinRef(o, 0));
  n.check_valid(true);
  const RetimeGraph rg = RetimeGraph::from_netlist(n);
  const MinAreaResult r = min_area_retime(rg);
  EXPECT_EQ(r.registers_before, 2);
  EXPECT_EQ(r.registers_after, 1);
  // Apply and verify structurally.
  const Netlist retimed = apply_retiming(n, rg, r.lag);
  EXPECT_EQ(retimed.num_latches(), 1u);
  retimed.check_valid(true);
}

TEST(MinArea, MatchesBruteForceOnTinyCircuits) {
  Rng rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    Netlist n;
    const RetimeGraph g = small_random_graph(rng, n);
    const auto best = brute_force_best(
        g, 2, [&](const std::vector<int>& lag) -> std::optional<std::int64_t> {
          return g.retimed_total_weight(lag);
        });
    if (!best) continue;
    const MinAreaResult r = min_area_retime(g);
    // Brute force is bounded to |lag| <= 2, so it can only over-estimate.
    EXPECT_LE(r.registers_after, *best) << "trial " << trial;
    EXPECT_TRUE(g.legal_retiming(r.lag));
    EXPECT_EQ(g.retimed_total_weight(r.lag), r.registers_after);
  }
}

TEST(MinArea, NeverIncreasesRegistersUnconstrained) {
  Rng rng(777);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_latches = 8;
  opt.num_gates = 40;
  opt.latch_after_gate_probability = 0.35;
  for (int trial = 0; trial < 10; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const MinAreaResult r = min_area_retime(g);
    EXPECT_LE(r.registers_after, r.registers_before);
    EXPECT_TRUE(g.legal_retiming(r.lag));
  }
}

TEST(MinAreaWithPeriod, RespectsPeriodConstraint) {
  Rng rng(999);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 6;
  opt.num_gates = 25;
  opt.latch_after_gate_probability = 0.4;
  for (int trial = 0; trial < 8; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const int target = min_period_retime_opt(g).period;
    const auto r = min_area_retime_with_period(g, target);
    ASSERT_TRUE(r.has_value()) << "optimal period must be feasible";
    EXPECT_LE(g.clock_period(r->lag), target);
    // The unconstrained optimum can only be <= the constrained one.
    EXPECT_LE(min_area_retime(g).registers_after, r->registers_after);
  }
}

TEST(MinAreaWithPeriod, InfeasiblePeriodReturnsNullopt) {
  const RetimeGraph g = RetimeGraph::from_netlist(inverter_pipeline());
  EXPECT_FALSE(min_area_retime_with_period(g, 0).has_value());
}

TEST(MinAreaWithPeriod, WorksAboveTheOldVertexCap) {
  // Min-area at a period once built the W/D matrices and refused graphs
  // above 4096 vertices; its cut loop has no vertex cap.
  const RetimeGraph g =
      RetimeGraph::from_netlist(testing::above_wd_cap_design());
  ASSERT_GT(g.num_vertices(), 4096u);
  const RetimingSolution feas = min_period_retime_feas(g);
  const auto r = min_area_retime_with_period(g, feas.period);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(g.legal_retiming(r->lag));
  EXPECT_LE(g.clock_period(r->lag), feas.period);
  EXPECT_GE(r->registers_after, min_area_retime(g).registers_after);
  EXPECT_LE(r->registers_after, g.retimed_total_weight(feas.lag));
}

TEST(MinAreaWithPeriod, MatchesBruteForce) {
  Rng rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    Netlist n;
    const RetimeGraph g = small_random_graph(rng, n);
    const int target = min_period_retime_opt(g).period;
    const auto best = brute_force_best(
        g, 2, [&](const std::vector<int>& lag) -> std::optional<std::int64_t> {
          if (g.clock_period(lag) > target) return std::nullopt;
          return g.retimed_total_weight(lag);
        });
    const auto r = min_area_retime_with_period(g, target);
    ASSERT_TRUE(r.has_value());
    if (best) {
      EXPECT_LE(r->registers_after, *best) << "trial " << trial;
    }
  }
}

TEST(RetimedBehaviour, MinAreaPreservesDelayedBehaviour) {
  // Behavioural regression: after min-area retiming, C^n ⊑ D for some
  // small n (Cor 4.3) on STG-sized circuits.
  Rng rng(4242);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 12;
  opt.latch_after_gate_probability = 0.3;
  int checked = 0;
  for (int trial = 0; trial < 12 && checked < 6; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    if (n.num_latches() > 7) continue;
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const MinAreaResult r = min_area_retime(g);
    const Netlist retimed = apply_retiming(n, g, r.lag);
    if (retimed.num_latches() > 10) continue;
    const Stg d = Stg::extract(n);
    const Stg c = Stg::extract(retimed);
    EXPECT_GE(min_delay_for_implication(c, d, 16), 0) << "trial " << trial;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace rtv
