#pragma once
// The Leiserson–Saxe W and D matrices and OPT [LS83], kept as a test
// reference for the matrix-free solvers in src/retime (FEAS and min-area at
// a period, both over critical-path cuts).
//
// W(u,v) = minimum register count over all u->v paths; D(u,v) = maximum
// total vertex delay over the minimum-register u->v paths (endpoints
// included). Computed with Floyd–Warshall on the lexicographic weight
// (w, -d): O(V^3) time, O(V^2) memory. OPT binary-searches the distinct D
// values, testing feasibility with Bellman–Ford on the exact system
// lag(u) - lag(v) <= w(e), and lag(u) - lag(v) <= W(u,v) - 1 wherever
// D(u,v) > c.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "retime/difference_constraints.hpp"
#include "retime/graph.hpp"
#include "retime/min_period.hpp"
#include "util/error.hpp"

namespace rtv {

struct WdMatrices {
  std::uint32_t n = 0;
  /// kUnreachable in W marks "no path".
  static constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;
  std::vector<int> w;  ///< n*n, row-major: w[u*n+v]
  std::vector<int> d;  ///< n*n

  int W(std::uint32_t u, std::uint32_t v) const { return w[u * n + v]; }
  int D(std::uint32_t u, std::uint32_t v) const { return d[u * n + v]; }
  bool reachable(std::uint32_t u, std::uint32_t v) const {
    return W(u, v) < kUnreachable;
  }

  /// Sorted distinct finite D values — the candidate clock periods for the
  /// binary search in min-period retiming.
  std::vector<int> candidate_periods() const {
    std::vector<int> values;
    values.reserve(d.size());
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (reachable(u, v)) values.push_back(D(u, v));
      }
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
  }
};

/// Computes W and D. Caps at vertex_cap vertices (quadratic memory).
inline WdMatrices compute_wd(const RetimeGraph& graph,
                             std::uint32_t vertex_cap = 4096) {
  const std::uint32_t n = graph.num_vertices();
  if (n > vertex_cap) {
    throw CapacityError("compute_wd: graph exceeds the vertex cap (" +
                        std::to_string(n) + " vertices, cap " +
                        std::to_string(vertex_cap) + ")");
  }
  WdMatrices m;
  m.n = n;
  m.w.assign(static_cast<std::size_t>(n) * n, WdMatrices::kUnreachable);
  m.d.assign(static_cast<std::size_t>(n) * n, 0);

  const auto relax = [&](std::uint32_t u, std::uint32_t v, int w, int d) {
    auto& wr = m.w[static_cast<std::size_t>(u) * n + v];
    auto& dr = m.d[static_cast<std::size_t>(u) * n + v];
    // Lexicographic: minimize registers, then maximize delay.
    if (w < wr || (w == wr && d > dr)) {
      wr = w;
      dr = d;
    }
  };

  for (std::uint32_t v = 0; v < n; ++v) relax(v, v, 0, graph.delay(v));
  for (const RetimeGraph::Edge& e : graph.edges()) {
    relax(e.from, e.to, e.weight, graph.delay(e.from) + graph.delay(e.to));
  }
  for (std::uint32_t k = 0; k < n; ++k) {
    for (std::uint32_t u = 0; u < n; ++u) {
      const int wuk = m.W(u, k);
      if (wuk >= WdMatrices::kUnreachable) continue;
      const int duk = m.D(u, k);
      for (std::uint32_t v = 0; v < n; ++v) {
        const int wkv = m.W(k, v);
        if (wkv >= WdMatrices::kUnreachable) continue;
        relax(u, v, wuk + wkv, duk + m.D(k, v) - graph.delay(k));
      }
    }
  }
  return m;
}

/// Bellman–Ford feasibility for target period c using precomputed W/D.
/// Returns a legal lag assignment (host = 0) achieving period <= c, or
/// nullopt.
inline std::optional<std::vector<int>> feasible_retiming_opt(
    const RetimeGraph& graph, const WdMatrices& wd, int period) {
  const std::uint32_t n = graph.num_vertices();
  DifferenceConstraints system(n);
  for (const RetimeGraph::Edge& e : graph.edges()) {
    system.add(e.from, e.to, e.weight);
  }
  system.add(RetimeGraph::kHostSource, RetimeGraph::kHostSink, 0);
  system.add(RetimeGraph::kHostSink, RetimeGraph::kHostSource, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = 0; v < n; ++v) {
      if (wd.reachable(u, v) && wd.D(u, v) > period) {
        system.add(u, v, wd.W(u, v) - 1);
      }
    }
  }
  if (!system.solve()) return std::nullopt;
  std::vector<int> lag = system.solution();
  const int shift = lag[RetimeGraph::kHostSource];
  for (int& l : lag) l -= shift;
  if (lag[RetimeGraph::kHostSink] != 0 || !graph.legal_retiming(lag) ||
      graph.clock_period(lag) > period) {
    return std::nullopt;
  }
  return lag;
}

/// Exact min-period retiming via OPT: W/D, then binary search over the
/// candidate periods from the current one down.
inline RetimingSolution min_period_retime_opt(const RetimeGraph& graph) {
  const WdMatrices wd = compute_wd(graph);
  const std::vector<int> candidates = wd.candidate_periods();
  std::size_t lo = 0;
  std::size_t best_idx = static_cast<std::size_t>(
      std::lower_bound(candidates.begin(), candidates.end(),
                       graph.clock_period()) -
      candidates.begin());
  RTV_CHECK(best_idx < candidates.size());
  std::optional<std::vector<int>> best =
      feasible_retiming_opt(graph, wd, candidates[best_idx]);
  RTV_CHECK_MSG(best.has_value(), "current period must be feasible");
  while (lo < best_idx) {
    const std::size_t mid = (lo + best_idx) / 2;
    if (auto lag = feasible_retiming_opt(graph, wd, candidates[mid])) {
      best = std::move(lag);
      best_idx = mid;
    } else {
      lo = mid + 1;
    }
  }
  return RetimingSolution{graph.clock_period(*best), std::move(*best)};
}

}  // namespace rtv
