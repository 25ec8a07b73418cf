#include "retime/min_period.hpp"

#include <algorithm>

#include "retime/difference_constraints.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {

constexpr std::uint32_t kNoPred = 0xffffffffu;

/// Normalizes a solution so both host sides have lag 0, verifying that the
/// two host lags agree (they always do: the base constraints tie them).
std::optional<std::vector<int>> normalize_host(const RetimeGraph& graph,
                                               std::vector<int> lag) {
  const int shift = lag[RetimeGraph::kHostSource];
  for (int& v : lag) v -= shift;
  if (lag[RetimeGraph::kHostSink] != 0) return std::nullopt;
  if (!graph.legal_retiming(lag)) return std::nullopt;
  return lag;
}

/// The legality constraints lag(u) - lag(v) <= w(e), plus lag(src) ==
/// lag(snk) to tie the two host sides together.
DifferenceConstraints base_constraints(const RetimeGraph& graph) {
  DifferenceConstraints system(graph.num_vertices());
  for (const RetimeGraph::Edge& e : graph.edges()) {
    system.add(e.from, e.to, e.weight);
  }
  system.add(RetimeGraph::kHostSource, RetimeGraph::kHostSink, 0);
  system.add(RetimeGraph::kHostSink, RetimeGraph::kHostSource, 0);
  return system;
}

/// FEAS feasibility for one period, seeded with every pooled cut that holds
/// at it; appends the cuts it generates to the pool.
std::optional<std::vector<int>> feas_probe(const RetimeGraph& graph,
                                           int period,
                                           std::vector<PeriodCut>& pool) {
  // Incremental (matrix-free) feasibility by lazy constraint generation:
  // solve the legality difference constraints, then, while the retimed
  // circuit is too slow, add the critical-path cuts of the current
  // solution. Every cut is implied by the exact period constraints, so the
  // method is sound; each round strictly cuts off the current solution,
  // and the constraint space is finite, so it is complete. The solver
  // keeps its labels across rounds; its first solution that meets the
  // period is the greatest one <= 0 of the exact system, whatever cuts led
  // there.
  if (max_vertex_delay(graph) > period) return std::nullopt;
  DifferenceConstraints system = base_constraints(graph);
  for (const PeriodCut& cut : pool) {
    if (cut.delay > period) system.add(cut.u, cut.v, cut.bound);
  }
  CriticalPathCuts cuts(graph);

  // A backstop: hitting it reports "infeasible" although the period may be
  // feasible, so very deep pipelines can settle above the optimum
  // (pipelined_multiplier(32, 8); see docs/algorithms.md). Min-area at a
  // period never stops on it: it runs its own loop over the same cuts.
  const std::size_t max_rounds = std::min<std::size_t>(
      4 * static_cast<std::size_t>(graph.num_vertices()) + 16, 512);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (!system.solve()) return std::nullopt;
    auto lag = normalize_host(graph, system.solution());
    if (!lag) return std::nullopt;
    const std::size_t first = pool.size();
    if (cuts.meets(*lag, period, pool)) return lag;
    for (std::size_t i = first; i < pool.size(); ++i) {
      system.add(pool[i].u, pool[i].v, pool[i].bound);
    }
  }
  return std::nullopt;  // round budget exhausted
}

}  // namespace

CriticalPathCuts::CriticalPathCuts(const RetimeGraph& graph)
    : graph_(graph),
      arrival_(graph.num_vertices()),
      path_weight_(graph.num_vertices()),
      pred_(graph.num_vertices()),
      indegree_(graph.num_vertices()),
      extended_(graph.num_vertices()) {}

bool CriticalPathCuts::meets(const std::vector<int>& lag, int period,
                             std::vector<PeriodCut>& cuts) {
  // Arrival computation with critical-path predecessors. The scratch is
  // reached through locals so the loops need not reload the members.
  const RetimeGraph& graph = graph_;
  const std::uint32_t n = graph.num_vertices();
  int* const arrival = arrival_.data();
  std::int64_t* const path_weight = path_weight_.data();
  std::uint32_t* const pred = pred_.data();
  std::uint32_t* const indegree = indegree_.data();
  std::vector<std::uint32_t>& ready = ready_;
  std::fill(indegree, indegree + n, 0);
  for (std::size_t i = 0; i < graph.num_edges(); ++i) {
    if (graph.retimed_weight(i, lag) == 0) ++indegree[graph.edge(i).to];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    arrival[v] = graph.delay(v);
    path_weight[v] = 0;
    pred[v] = kNoPred;
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::size_t emitted = 0;
  while (!ready.empty()) {
    const std::uint32_t u = ready.back();
    ready.pop_back();
    ++emitted;
    for (const std::uint32_t i : graph.out_edges(u)) {
      if (graph.retimed_weight(i, lag) != 0) continue;
      const std::uint32_t v = graph.edge(i).to;
      if (arrival[u] + graph.delay(v) > arrival[v]) {
        arrival[v] = arrival[u] + graph.delay(v);
        path_weight[v] = path_weight[u] + graph.edge(i).weight;
        pred[v] = u;
      }
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  RTV_CHECK_MSG(emitted == n, "zero-weight subgraph has a cycle");

  // Cut only where a critical path ends: a late vertex that is the
  // critical predecessor of another late vertex lies on that vertex's
  // path, and its own cut adds little but arcs to relax.
  std::vector<bool>& extended = extended_;
  std::fill(extended.begin(), extended.end(), false);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (arrival[v] > period && pred[v] != kNoPred) extended[pred[v]] = true;
  }
  bool any_late = false;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (arrival[v] <= period) continue;
    any_late = true;
    if (extended[v]) continue;
    // Walk to the start of v's critical path.
    std::uint32_t u = v;
    while (pred[u] != kNoPred) u = pred[u];
    RTV_CHECK_MSG(u != v, "single-vertex path exceeding the period");
    cuts.push_back({u, v, static_cast<int>(path_weight[v]) - 1, arrival[v]});
  }
  return !any_late;
}

int max_vertex_delay(const RetimeGraph& graph) {
  int delay = 0;
  for (std::uint32_t v = 0; v < graph.num_vertices(); ++v) {
    delay = std::max(delay, graph.delay(v));
  }
  return delay;
}

std::optional<std::vector<int>> feasible_retiming_feas(
    const RetimeGraph& graph, int period) {
  std::vector<PeriodCut> pool;
  return feas_probe(graph, period, pool);
}

RetimingSolution min_period_retime_feas(const RetimeGraph& graph) {
  // Binary search over the integer periods (feasibility is monotone in the
  // period). The current period is always feasible (lag = 0), so the
  // search starts there. One cut pool spans the search: a cut found while
  // probing one period is preloaded into every probe at a period below its
  // path delay.
  std::vector<PeriodCut> pool;
  int lo = max_vertex_delay(graph);
  int best_period = graph.clock_period();
  std::optional<std::vector<int>> best = feas_probe(graph, best_period, pool);
  RTV_CHECK_MSG(best.has_value(), "current period must be feasible");
  while (lo < best_period) {
    const int mid = lo + (best_period - lo) / 2;
    if (auto lag = feas_probe(graph, mid, pool)) {
      best = std::move(lag);
      best_period = mid;
    } else {
      lo = mid + 1;
    }
  }
  return RetimingSolution{graph.clock_period(*best), std::move(*best)};
}

}  // namespace rtv
