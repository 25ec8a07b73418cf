#pragma once
// Minimum clock-period retiming [LS83], two independent algorithms:
//
//  * OPT: binary search over the candidate periods (the distinct D(u,v)
//    values), testing feasibility with Bellman–Ford on the difference-
//    constraint system  lag(u) - lag(v) <= w(e)  and, for pairs with
//    D(u,v) > c,  lag(u) - lag(v) <= W(u,v) - 1. Exact; needs W/D matrices.
//
//  * FEAS-style incremental: matrix-free lazy constraint generation in the
//    spirit of [LS83]'s FEAS and [SR94]'s engineering — solve the legality
//    difference constraints by Bellman–Ford, then repeatedly cut off the
//    current solution with one path constraint per late vertex
//    (lag(u) - lag(v) <= w(p) - 1 along its critical path) until the target
//    period is met. O(V^2) memory never materializes; the min period is
//    found by integer binary search (vertex delays are integers), with one
//    pool of cuts shared by every probe of the search.
//
// Both return the greatest lag vector <= 0 (anchored at host = 0) that
// meets the period — identical lags; tests cross-check them.

#include <optional>
#include <vector>

#include "retime/graph.hpp"
#include "retime/wd.hpp"

namespace rtv {

struct RetimingSolution {
  int period = 0;
  std::vector<int> lag;
};

/// Bellman–Ford feasibility for target period c using precomputed W/D.
/// Returns a legal lag assignment achieving period <= c, or nullopt.
std::optional<std::vector<int>> feasible_retiming_opt(const RetimeGraph& graph,
                                                      const WdMatrices& wd,
                                                      int period);

/// FEAS feasibility for target period c. Returns a legal lag assignment
/// achieving period <= c, or nullopt.
std::optional<std::vector<int>> feasible_retiming_feas(
    const RetimeGraph& graph, int period);

/// Exact min-period retiming via OPT (W/D + binary search over candidates).
RetimingSolution min_period_retime_opt(const RetimeGraph& graph);

/// Min-period retiming via FEAS + integer binary search.
RetimingSolution min_period_retime_feas(const RetimeGraph& graph);

}  // namespace rtv
