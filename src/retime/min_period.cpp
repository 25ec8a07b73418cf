#include "retime/min_period.hpp"

#include <algorithm>
#include <numeric>

#include "retime/difference_constraints.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {

/// A lazy FEAS cut lag(u) - lag(v) <= bound from a critical path of the
/// given delay. Any retiming with period < delay must keep a register on
/// that path, so the cut holds at every period below its delay.
struct Cut {
  std::uint32_t u;
  std::uint32_t v;
  int bound;
  int delay;
};

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
                                           int period, std::vector<Cut>& pool) {
  // Incremental (matrix-free) feasibility by lazy constraint generation:
  // solve the legality difference constraints, then, while the retimed
  // circuit is too slow, walk each late vertex's critical path p (all
  // retimed weights 0) back to its start u and add the valid cut
  //     lag(u) - lag(v) <= w(p) - 1
  // (w(p) = original registers on p = lag(u) - lag(v) under the current
  // violating solution, so the cut always separates it). Every constraint
  // is implied by the exact period constraints lag(u) - lag(v) <= W(u,v)-1,
  // so the method is sound; each round strictly cuts off the current
  // solution, and the constraint space is finite, so it is complete. This
  // trades the O(V^2) W/D memory of OPT for a few Bellman-Ford passes —
  // the same engineering trade [SR94] advocates. The solver keeps its
  // labels across rounds; its first solution that meets the period is the
  // greatest one <= 0 of the exact system, whatever cuts led there.
  const std::uint32_t n = graph.num_vertices();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (graph.delay(v) > period) return std::nullopt;
  }
  DifferenceConstraints system = base_constraints(graph);
  for (const Cut& cut : pool) {
    if (cut.delay > period) system.add(cut.u, cut.v, cut.bound);
  }

  // Arrival computation with critical-path predecessors.
  std::vector<int> arrival(n);
  std::vector<std::int64_t> path_weight(n);  // original registers on path
  std::vector<std::uint32_t> pred(n);
  std::vector<std::uint32_t> indegree(n);
  std::vector<std::uint32_t> ready;
  std::vector<bool> extended(n);

  // A backstop: hitting it reports "infeasible" although the period may be
  // feasible, so very deep pipelines can settle above the optimum
  // (pipelined_multiplier(32, 8); see docs/algorithms.md).
  const std::size_t max_rounds =
      std::min<std::size_t>(4 * static_cast<std::size_t>(n) + 16, 512);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (!system.solve()) return std::nullopt;
    auto lag = normalize_host(graph, system.solution());
    if (!lag) return std::nullopt;

    std::fill(indegree.begin(), indegree.end(), 0);
    for (std::size_t i = 0; i < graph.num_edges(); ++i) {
      if (graph.retimed_weight(i, *lag) == 0) ++indegree[graph.edge(i).to];
    }
    constexpr std::uint32_t kNoPred = 0xffffffffu;
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
        if (graph.retimed_weight(i, *lag) != 0) continue;
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
      const Cut cut{u, v, static_cast<int>(path_weight[v]) - 1, arrival[v]};
      system.add(cut.u, cut.v, cut.bound);
      pool.push_back(cut);
    }
    if (!any_late) return lag;
  }
  return std::nullopt;  // round budget exhausted
}

/// The smallest feasible period among sorted `candidates`, by binary search
/// (feasibility is monotone in the period). The current period is always
/// feasible (lag = 0), so the search starts there.
template <typename Probe>
RetimingSolution search_min_period(const RetimeGraph& graph,
                                   const std::vector<int>& candidates,
                                   Probe&& probe) {
  std::size_t lo = 0;
  std::size_t best_idx = static_cast<std::size_t>(
      std::lower_bound(candidates.begin(), candidates.end(),
                       graph.clock_period()) -
      candidates.begin());
  RTV_CHECK(best_idx < candidates.size());
  std::optional<std::vector<int>> best = probe(candidates[best_idx]);
  RTV_CHECK_MSG(best.has_value(), "current period must be feasible");
  while (lo < best_idx) {
    const std::size_t mid = (lo + best_idx) / 2;
    if (auto lag = probe(candidates[mid])) {
      best = std::move(lag);
      best_idx = mid;
    } else {
      lo = mid + 1;
    }
  }
  return RetimingSolution{graph.clock_period(*best), std::move(*best)};
}

}  // namespace

std::optional<std::vector<int>> feasible_retiming_opt(const RetimeGraph& graph,
                                                      const WdMatrices& wd,
                                                      int period) {
  const std::uint32_t n = graph.num_vertices();
  DifferenceConstraints system = base_constraints(graph);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (wd.reachable(u, v) && wd.D(u, v) > period) {
        system.add(u, v, wd.W(u, v) - 1);
      }
    }
  }
  if (!system.solve()) return std::nullopt;
  auto normalized = normalize_host(graph, system.solution());
  if (!normalized) return std::nullopt;
  if (graph.clock_period(*normalized) > period) return std::nullopt;
  return normalized;
}

std::optional<std::vector<int>> feasible_retiming_feas(
    const RetimeGraph& graph, int period) {
  std::vector<Cut> pool;
  return feas_probe(graph, period, pool);
}

RetimingSolution min_period_retime_opt(const RetimeGraph& graph) {
  const WdMatrices wd = compute_wd(graph);
  return search_min_period(graph, wd.candidate_periods(), [&](int period) {
    return feasible_retiming_opt(graph, wd, period);
  });
}

RetimingSolution min_period_retime_feas(const RetimeGraph& graph) {
  int lo = 0;
  for (std::uint32_t v = 0; v < graph.num_vertices(); ++v) {
    lo = std::max(lo, graph.delay(v));
  }
  std::vector<int> periods(graph.clock_period() - lo + 1);
  std::iota(periods.begin(), periods.end(), lo);
  // One cut pool spans the search: a cut found while probing one period
  // is preloaded into every probe at a period below its path delay.
  std::vector<Cut> pool;
  return search_min_period(graph, periods, [&](int period) {
    return feas_probe(graph, period, pool);
  });
}

}  // namespace rtv
