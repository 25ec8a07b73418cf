// Lag parity of the retime solvers with the algorithms they replaced:
// successive-shortest-path min-cost flow (lags read off its potentials) for
// min-area, and the FEAS loop that rebuilt its constraint graph every round
// and kept no cuts between probes for min-period. Those live on here, as
// the reference_* functions, and nowhere in src/.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "util/rng.hpp"
#include "wd_reference.hpp"

namespace rtv {
namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/// Min-cost flow by successive shortest paths: one Dijkstra over
/// Johnson-reduced costs per augmenting path.
class ReferenceMinCostFlow {
 public:
  explicit ReferenceMinCostFlow(std::uint32_t n)
      : n_(n), graph_(n), potential_(n, 0) {}

  std::uint32_t add_arc(std::uint32_t from, std::uint32_t to,
                        std::int64_t capacity, std::int64_t cost) {
    if (cost < 0) has_negative_cost_ = true;
    const auto id = static_cast<std::uint32_t>(location_.size());
    location_.emplace_back(from, static_cast<std::uint32_t>(graph_[from].size()));
    capacity_.push_back(capacity);
    graph_[from].push_back(
        Arc{to, static_cast<std::uint32_t>(graph_[to].size()), capacity, cost});
    graph_[to].push_back(Arc{
        from, static_cast<std::uint32_t>(graph_[from].size() - 1), 0, -cost});
    return id;
  }

  std::int64_t solve(std::uint32_t source, std::uint32_t sink,
                     std::int64_t max_flow) {
    if (has_negative_cost_) bellman_ford_potentials(source);
    std::int64_t flow = 0;
    std::vector<std::uint32_t> prev_node, prev_arc;
    while (flow < max_flow && dijkstra(source, sink, prev_node, prev_arc)) {
      std::int64_t push = max_flow - flow;
      for (std::uint32_t v = sink; v != source; v = prev_node[v]) {
        push = std::min(push, graph_[prev_node[v]][prev_arc[v]].capacity);
      }
      for (std::uint32_t v = sink; v != source; v = prev_node[v]) {
        Arc& a = graph_[prev_node[v]][prev_arc[v]];
        a.capacity -= push;
        graph_[v][a.rev].capacity += push;
      }
      flow += push;
    }
    return flow;
  }

  std::int64_t flow_on(std::uint32_t id) const {
    const auto [node, idx] = location_[id];
    return capacity_[id] - graph_[node][idx].capacity;
  }

  const std::vector<std::int64_t>& potentials() const { return potential_; }

 private:
  struct Arc {
    std::uint32_t to;
    std::uint32_t rev;
    std::int64_t capacity;
    std::int64_t cost;
  };

  void bellman_ford_potentials(std::uint32_t source) {
    std::vector<std::int64_t> dist(n_, kInf);
    dist[source] = 0;
    for (std::uint32_t round = 0; round + 1 < std::max<std::uint32_t>(n_, 2);
         ++round) {
      bool changed = false;
      for (std::uint32_t u = 0; u < n_; ++u) {
        if (dist[u] >= kInf) continue;
        for (const Arc& a : graph_[u]) {
          if (a.capacity > 0 && dist[u] + a.cost < dist[a.to]) {
            dist[a.to] = dist[u] + a.cost;
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
    for (std::uint32_t v = 0; v < n_; ++v) {
      potential_[v] = dist[v] >= kInf ? 0 : dist[v];
    }
  }

  bool dijkstra(std::uint32_t source, std::uint32_t sink,
                std::vector<std::uint32_t>& prev_node,
                std::vector<std::uint32_t>& prev_arc) {
    std::vector<std::int64_t> dist(n_, kInf);
    prev_node.assign(n_, 0xffffffffu);
    prev_arc.assign(n_, 0);
    using Item = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[source] = 0;
    heap.emplace(0, source);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (std::uint32_t i = 0; i < graph_[u].size(); ++i) {
        const Arc& a = graph_[u][i];
        if (a.capacity <= 0) continue;
        const std::int64_t reduced = a.cost + potential_[u] - potential_[a.to];
        if (dist[u] + reduced < dist[a.to]) {
          dist[a.to] = dist[u] + reduced;
          prev_node[a.to] = u;
          prev_arc[a.to] = i;
          heap.emplace(dist[a.to], a.to);
        }
      }
    }
    if (dist[sink] >= kInf) return false;
    for (std::uint32_t v = 0; v < n_; ++v) {
      potential_[v] += std::min(dist[v], dist[sink]);
    }
    return true;
  }

  std::uint32_t n_;
  std::vector<std::vector<Arc>> graph_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> location_;
  std::vector<std::int64_t> capacity_;
  std::vector<std::int64_t> potential_;
  bool has_negative_cost_ = false;
};

/// lag(u) - lag(v) <= bound.
struct Constraint {
  std::uint32_t u;
  std::uint32_t v;
  int bound;
};

std::vector<Constraint> legality_constraints(const RetimeGraph& g) {
  std::vector<Constraint> cs;
  for (const RetimeGraph::Edge& e : g.edges()) {
    cs.push_back({e.from, e.to, e.weight});
  }
  cs.push_back({RetimeGraph::kHostSource, RetimeGraph::kHostSink, 0});
  cs.push_back({RetimeGraph::kHostSink, RetimeGraph::kHostSource, 0});
  return cs;
}

std::vector<Constraint> safe_constraints(const RetimeGraph& g,
                                         const Netlist& netlist) {
  std::vector<Constraint> cs = legality_constraints(g);
  for (std::uint32_t v = 2; v < g.num_vertices(); ++v) {
    if (!netlist.is_justifiable(g.vertex_origin(v))) {
      cs.push_back({RetimeGraph::kHostSource, v, 0});
    }
  }
  return cs;
}

std::vector<Constraint> period_constraints(const RetimeGraph& g,
                                           const WdMatrices& wd, int period) {
  std::vector<Constraint> cs = legality_constraints(g);
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
      if (u != v && wd.reachable(u, v) && wd.D(u, v) > period) {
        cs.push_back({u, v, wd.W(u, v) - 1});
      }
    }
  }
  return cs;
}

/// The register-minimization dual flow, solved by successive shortest paths.
struct ReferenceDual {
  ReferenceMinCostFlow flow;
  std::vector<std::uint32_t> arc_ids;
};

void solve_reference_dual(const RetimeGraph& g,
                          const std::vector<Constraint>& cs,
                          ReferenceDual& dual) {
  const std::uint32_t n = g.num_vertices();
  const std::vector<int> a = g.degree_imbalance();
  std::int64_t total_supply = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (a[v] < 0) {
      dual.flow.add_arc(n, v, -a[v], 0);
      total_supply += -a[v];
    } else if (a[v] > 0) {
      dual.flow.add_arc(v, n + 1, a[v], 0);
    }
  }
  for (const Constraint& c : cs) {
    dual.arc_ids.push_back(dual.flow.add_arc(c.u, c.v, total_supply + 1, c.bound));
  }
  ASSERT_EQ(dual.flow.solve(n, n + 1, total_supply), total_supply);
}

std::vector<int> anchored(std::vector<int> lag) {
  const int shift = lag[RetimeGraph::kHostSource];
  for (int& l : lag) l -= shift;
  return lag;
}

/// The old min-area read-out: lags are the negated SSP potentials.
std::vector<int> reference_min_area(const RetimeGraph& g,
                                    const std::vector<Constraint>& cs) {
  ReferenceDual dual{ReferenceMinCostFlow(g.num_vertices() + 2), {}};
  solve_reference_dual(g, cs, dual);
  std::vector<int> lag(g.num_vertices());
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    lag[v] = static_cast<int>(-dual.flow.potentials()[v]);
  }
  return anchored(std::move(lag));
}

/// The least optimal lag vector, from the reference flow: plain
/// Bellman–Ford from all-zero over pi = -lag, on the constraints plus the
/// reverse of every constraint arc with flow (complementary slackness).
std::vector<int> least_optimal_lags(const RetimeGraph& g,
                                    const std::vector<Constraint>& cs) {
  ReferenceDual dual{ReferenceMinCostFlow(g.num_vertices() + 2), {}};
  solve_reference_dual(g, cs, dual);
  std::vector<std::array<int, 3>> arcs;  // pi[to] <= pi[from] + len
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Constraint& c = cs[i];
    arcs.push_back({static_cast<int>(c.u), static_cast<int>(c.v), c.bound});
    if (dual.flow.flow_on(dual.arc_ids[i]) > 0) {
      arcs.push_back({static_cast<int>(c.v), static_cast<int>(c.u), -c.bound});
    }
  }
  std::vector<int> pi(g.num_vertices(), 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [from, to, len] : arcs) {
      if (pi[from] + len < pi[to]) {
        pi[to] = pi[from] + len;
        changed = true;
      }
    }
  }
  std::vector<int> lag(g.num_vertices());
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) lag[v] = -pi[v];
  return anchored(std::move(lag));
}

/// The old FEAS difference-constraint solve: SPFA from all-zero over a
/// freshly built adjacency.
std::optional<std::vector<int>> reference_spfa(
    std::uint32_t n, const std::vector<Constraint>& cs) {
  std::vector<std::vector<std::pair<std::uint32_t, int>>> adj(n);
  for (const Constraint& c : cs) adj[c.v].emplace_back(c.u, c.bound);
  std::vector<int> dist(n, 0);
  std::vector<bool> queued(n, true);
  std::vector<std::uint32_t> relax_count(n, 0);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t v = 0; v < n; ++v) queue.push_back(v);
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    queued[v] = false;
    for (const auto& [u, bound] : adj[v]) {
      if (dist[v] + bound < dist[u]) {
        dist[u] = dist[v] + bound;
        if (++relax_count[u] > n) return std::nullopt;
        if (!queued[u]) {
          queued[u] = true;
          queue.push_back(u);
        }
      }
    }
  }
  return dist;
}

/// The old FEAS probe: rebuild and re-solve every round, no cut reuse.
std::optional<std::vector<int>> reference_feas(const RetimeGraph& g,
                                               int period) {
  const std::uint32_t n = g.num_vertices();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (g.delay(v) > period) return std::nullopt;
  }
  std::vector<Constraint> cs = legality_constraints(g);
  std::vector<int> arrival(n);
  std::vector<std::int64_t> path_weight(n);
  std::vector<std::uint32_t> pred(n);
  constexpr std::uint32_t kNoPred = 0xffffffffu;
  const std::size_t max_rounds =
      std::min<std::size_t>(4 * static_cast<std::size_t>(n) + 16, 512);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    auto solved = reference_spfa(n, cs);
    if (!solved) return std::nullopt;
    std::vector<int> lag = anchored(std::move(*solved));
    if (lag[RetimeGraph::kHostSink] != 0 || !g.legal_retiming(lag)) {
      return std::nullopt;
    }
    std::vector<std::uint32_t> indegree(n, 0);
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
      if (g.retimed_weight(i, lag) == 0) ++indegree[g.edge(i).to];
    }
    std::vector<std::uint32_t> ready;
    for (std::uint32_t v = 0; v < n; ++v) {
      arrival[v] = g.delay(v);
      path_weight[v] = 0;
      pred[v] = kNoPred;
      if (indegree[v] == 0) ready.push_back(v);
    }
    while (!ready.empty()) {
      const std::uint32_t u = ready.back();
      ready.pop_back();
      for (const std::uint32_t i : g.out_edges(u)) {
        if (g.retimed_weight(i, lag) != 0) continue;
        const std::uint32_t v = g.edge(i).to;
        if (arrival[u] + g.delay(v) > arrival[v]) {
          arrival[v] = arrival[u] + g.delay(v);
          path_weight[v] = path_weight[u] + g.edge(i).weight;
          pred[v] = u;
        }
        if (--indegree[v] == 0) ready.push_back(v);
      }
    }
    bool any_late = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (arrival[v] <= period) continue;
      any_late = true;
      std::uint32_t u = v;
      while (pred[u] != kNoPred) u = pred[u];
      cs.push_back({u, v, static_cast<int>(path_weight[v]) - 1});
    }
    if (!any_late) return lag;
  }
  return std::nullopt;
}

RetimingSolution reference_min_period_feas(const RetimeGraph& g) {
  int lo = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    lo = std::max(lo, g.delay(v));
  }
  int best_period = g.clock_period();
  std::optional<std::vector<int>> best = reference_feas(g, best_period);
  EXPECT_TRUE(best.has_value());
  while (lo < best_period) {
    const int mid = lo + (best_period - lo) / 2;
    if (auto lag = reference_feas(g, mid)) {
      best = std::move(lag);
      best_period = mid;
    } else {
      lo = mid + 1;
    }
  }
  return RetimingSolution{g.clock_period(*best), std::move(*best)};
}

struct Design {
  std::string name;
  Netlist netlist;
};

/// 600 seeded random designs of mixed sizes (a third with table cells,
/// which are often non-justifiable) plus the generator families.
std::vector<Design> parity_designs() {
  std::vector<Design> designs;
  Rng rng(20260);
  const unsigned gate_counts[] = {6, 12, 24, 48, 96};
  for (int i = 0; i < 600; ++i) {
    RandomCircuitOptions opt;
    opt.num_gates = gate_counts[i % 5];
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(4));
    opt.num_outputs = 1 + static_cast<unsigned>(rng.below(3));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(opt.num_gates / 2 + 2));
    opt.max_fanin = 2 + static_cast<unsigned>(rng.below(2));
    opt.latch_after_gate_probability = 0.1 + 0.1 * static_cast<double>(rng.below(5));
    if (i % 3 == 0) opt.table_probability = 0.2;
    designs.push_back({"random#" + std::to_string(i), random_netlist(opt, rng)});
  }
  designs.push_back({"adder(4,2)", pipelined_adder(4, 2)});
  designs.push_back({"adder(8,3)", pipelined_adder(8, 3)});
  designs.push_back({"adder(16,4)", pipelined_adder(16, 4)});
  designs.push_back({"mult(4,1)", pipelined_multiplier(4, 1)});
  designs.push_back({"mult(6,2)", pipelined_multiplier(6, 2)});
  designs.push_back({"mult(8,2)", pipelined_multiplier(8, 2)});
  designs.push_back({"ctrl(4)", controller_datapath(4)});
  designs.push_back({"ctrl(8)", controller_datapath(8)});
  designs.push_back({"shift(8)", shift_register(8)});
  designs.push_back({"lfsr(8)", lfsr(8, {2, 3, 5})});
  designs.push_back({"twisted(6)", twisted_ring(6)});
  return designs;
}

TEST(RetimeParity, MinAreaLagsMatchSuccessiveShortestPaths) {
  for (const Design& d : parity_designs()) {
    const RetimeGraph g = RetimeGraph::from_netlist(d.netlist);
    EXPECT_EQ(min_area_retime(g).lag,
              reference_min_area(g, legality_constraints(g)))
        << d.name;
    EXPECT_EQ(min_area_retime_safe(g, d.netlist).lag,
              reference_min_area(g, safe_constraints(g, d.netlist)))
        << d.name;
  }
}

TEST(RetimeParity, FeasLagsMatchRebuildingFeas) {
  for (const Design& d : parity_designs()) {
    const RetimeGraph g = RetimeGraph::from_netlist(d.netlist);
    const RetimingSolution now = min_period_retime_feas(g);
    const RetimingSolution ref = reference_min_period_feas(g);
    EXPECT_EQ(now.period, ref.period) << d.name;
    EXPECT_EQ(now.lag, ref.lag) << d.name;
  }
}

TEST(RetimeParity, MinAreaWithPeriodReadsOutTheLeastOptimalLags) {
  // Under a period the constraint system has negative bounds, and there
  // the old read-out (SSP potentials) was one optimal vector among many.
  // The register count must agree with it and the period constraint must
  // hold; the lags are the least optimal vector, computed here from the
  // reference flow. (The achieved period is not pinned to the old one: in
  // one case here the least vector reaches period 2 where the old lags
  // reached 3, both under the constraint 3.) One below the optimum the
  // answer is nullopt, as OPT's.
  int cases = 0;
  int changed = 0;
  for (const Design& d : parity_designs()) {
    const RetimeGraph g = RetimeGraph::from_netlist(d.netlist);
    if (g.num_vertices() > 96) continue;
    const WdMatrices wd = compute_wd(g);
    const int lowest = min_period_retime_opt(g).period;
    ASSERT_FALSE(feasible_retiming_opt(g, wd, lowest - 1).has_value())
        << d.name;
    EXPECT_FALSE(min_area_retime_with_period(g, lowest - 1).has_value())
        << d.name << " @" << lowest - 1;
    for (int period = lowest; period <= g.clock_period(); ++period) {
      const auto now = min_area_retime_with_period(g, period);
      ASSERT_TRUE(now.has_value()) << d.name << " @" << period;
      const std::vector<Constraint> cs = period_constraints(g, wd, period);
      const std::vector<int> ref = reference_min_area(g, cs);
      EXPECT_EQ(now->registers_after, g.retimed_total_weight(ref))
          << d.name << " @" << period;
      EXPECT_LE(g.clock_period(now->lag), period) << d.name << " @" << period;
      EXPECT_EQ(now->lag, least_optimal_lags(g, cs))
          << d.name << " @" << period;
      changed += now->lag != ref;
      ++cases;
    }
  }
  EXPECT_GT(cases, 600);
  EXPECT_GT(changed, 0) << "the old read-out was already canonical here";
}

}  // namespace
}  // namespace rtv
