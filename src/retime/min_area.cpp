#include "retime/min_area.hpp"

#include <algorithm>

#include "retime/difference_constraints.hpp"
#include "retime/mcmf.hpp"
#include "retime/min_period.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {

/// A difference constraint lag(u) - lag(v) <= bound.
struct Constraint {
  std::uint32_t u;
  std::uint32_t v;
  int bound;
};

/// Solves min sum_v a_v lag(v) subject to difference constraints via the
/// dual transshipment problem. a sums to zero (it is a degree imbalance),
/// so the objective is shift-invariant and we can anchor the host afterward.
std::vector<int> solve_dual(std::uint32_t n, const std::vector<int>& a,
                            const std::vector<Constraint>& constraints) {
  // Dual: find flow y >= 0 on constraint arcs u->v with cost = bound,
  // conservation inflow(v) - outflow(v) = a_v. Realized as max-flow from a
  // super-source to a super-sink; the all-ones flow on the original edge
  // constraints shows a feasible flow saturating all supplies exists.
  const std::uint32_t kSource = n;
  const std::uint32_t kSink = n + 1;
  MinCostFlow flow(n + 2);

  std::int64_t total_supply = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::int64_t supply = -a[v];  // outflow - inflow must equal -a_v
    if (supply > 0) {
      flow.add_arc(kSource, v, supply, 0);
      total_supply += supply;
    } else if (supply < 0) {
      flow.add_arc(v, kSink, -supply, 0);
    }
  }
  // Constraint arcs: capacity total_supply + 1 so they are never saturated.
  std::vector<std::uint32_t> arc_ids;
  arc_ids.reserve(constraints.size());
  for (const Constraint& c : constraints) {
    arc_ids.push_back(flow.add_arc(c.u, c.v, total_supply + 1, c.bound));
  }

  const auto result = flow.solve(kSource, kSink, total_supply);
  RTV_CHECK_MSG(result.flow == total_supply,
                "min-area dual flow infeasible (constraint system broken)");

  // The optimal lags are the feasible ones that are tight on every arc
  // carrying flow (complementary slackness) — the same set for every
  // optimal flow. Read out its least member: with pi = -lag, the greatest
  // pi <= 0 of pi(v) - pi(u) <= bound, plus pi(u) - pi(v) <= -bound on
  // the arcs with flow.
  DifferenceConstraints system(n);
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& c = constraints[i];
    system.add(c.v, c.u, c.bound);
    if (flow.flow_on(arc_ids[i]) > 0) system.add(c.u, c.v, -c.bound);
  }
  RTV_CHECK_MSG(system.solve(), "min-area optimality system infeasible");
  std::vector<int> lag(n);
  for (std::uint32_t v = 0; v < n; ++v) lag[v] = -system.solution()[v];
  return lag;
}

std::vector<Constraint> legality_constraints(const RetimeGraph& graph) {
  std::vector<Constraint> cs;
  cs.reserve(graph.num_edges() + 2);
  for (const RetimeGraph::Edge& e : graph.edges()) {
    cs.push_back({e.from, e.to, e.weight});
  }
  // Couple the two host sides (lag equal, normalized to 0 afterwards).
  cs.push_back({RetimeGraph::kHostSource, RetimeGraph::kHostSink, 0});
  cs.push_back({RetimeGraph::kHostSink, RetimeGraph::kHostSource, 0});
  return cs;
}

MinAreaResult finish(const RetimeGraph& graph, std::vector<int> lag) {
  // Anchor the host at lag 0 (objective and constraints are shift-invariant).
  const int shift = lag[RetimeGraph::kHostSource];
  for (int& v : lag) v -= shift;
  RTV_CHECK_MSG(graph.legal_retiming(lag),
                "min-area produced an illegal retiming");
  MinAreaResult result;
  result.registers_before = graph.total_weight();
  // Note: under a period constraint the optimum can exceed the original
  // register count (lag = 0 may be period-infeasible), so no <= assertion.
  result.registers_after = graph.retimed_total_weight(lag);
  result.lag = std::move(lag);
  return result;
}

}  // namespace

MinAreaResult min_area_retime(const RetimeGraph& graph) {
  return finish(graph, solve_dual(graph.num_vertices(),
                                  graph.degree_imbalance(),
                                  legality_constraints(graph)));
}

MinAreaResult min_area_retime_safe(const RetimeGraph& graph,
                                   const Netlist& netlist) {
  std::vector<Constraint> cs = legality_constraints(graph);
  for (std::uint32_t v = 2; v < graph.num_vertices(); ++v) {
    const NodeId origin = graph.vertex_origin(v);
    if (!netlist.is_justifiable(origin)) {
      // lag(host) - lag(v) <= 0, i.e. lag(v) >= 0: backward moves only.
      cs.push_back({RetimeGraph::kHostSource, v, 0});
    }
  }
  return finish(graph,
                solve_dual(graph.num_vertices(), graph.degree_imbalance(), cs));
}

std::optional<MinAreaResult> min_area_retime_with_period(
    const RetimeGraph& graph, int period) {
  // Lazy constraint generation [SR94]: solve min-area under the legality
  // constraints plus the critical-path cuts found so far, and cut again
  // while the read-out misses the period. Every cut is implied by the
  // exact [LS83] period constraints, so the relaxed optimal face contains
  // the exact one, and a relaxed read-out that meets the period is the
  // exact least optimal vector (docs/algorithms.md, "Min-area at a period
  // by lazy cuts"). Each round cuts off the current read-out and the cuts
  // are finite, so the loop ends with no round cap.
  if (max_vertex_delay(graph) > period) return std::nullopt;
  const std::uint32_t n = graph.num_vertices();
  const std::vector<int> imbalance = graph.degree_imbalance();
  std::vector<Constraint> cs = legality_constraints(graph);
  DifferenceConstraints system(n);
  for (const Constraint& c : cs) system.add(c.u, c.v, c.bound);
  CriticalPathCuts generator(graph);
  std::vector<PeriodCut> cuts;
  while (true) {
    // An infeasible relaxation would make the dual unbounded, and it
    // proves the period infeasible: the exact system is stronger.
    if (!system.solve()) return std::nullopt;
    MinAreaResult result = finish(graph, solve_dual(n, imbalance, cs));
    cuts.clear();
    if (generator.meets(result.lag, period, cuts)) return result;
    for (const PeriodCut& cut : cuts) {
      cs.push_back({cut.u, cut.v, cut.bound});
      system.add(cut.u, cut.v, cut.bound);
    }
  }
}

}  // namespace rtv
