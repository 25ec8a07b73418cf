#pragma once
// Minimum clock-period retiming [LS83] by FEAS-style lazy constraint
// generation, matrix-free in the spirit of [LS83]'s FEAS and [SR94]'s
// engineering: solve the legality difference constraints by Bellman–Ford,
// then repeatedly cut off the current solution with one path constraint per
// late critical-path end (lag(u) - lag(v) <= w(p) - 1, see
// CriticalPathCuts) until the target period is met. The O(V^2) W/D
// matrices of [LS83]'s OPT never materialize; the min period is found by
// integer binary search (vertex delays are integers), with one pool of cuts
// shared by every probe of the search. The lags returned are the greatest
// vector <= 0 (anchored at host = 0) of the exact [LS83] system at the
// period found; the tests keep OPT over W/D as a reference that checks it.
//
// CriticalPathCuts is the product's one period-constraint generator: FEAS
// and min-area at a period (min_area.hpp) both draw their cuts from it.

#include <cstdint>
#include <optional>
#include <vector>

#include "retime/graph.hpp"

namespace rtv {

struct RetimingSolution {
  int period = 0;
  std::vector<int> lag;
};

/// A period cut lag(u) - lag(v) <= bound from a critical path of the given
/// delay. Any retiming with period < delay must keep a register on that
/// path, so the cut holds at every period below its delay; it is implied
/// by the exact [LS83] constraint lag(u) - lag(v) <= W(u,v) - 1 there.
struct PeriodCut {
  std::uint32_t u;
  std::uint32_t v;
  int bound;
  int delay;
};

/// The critical-path cut generator. For a legal lag it computes arrival
/// times over the retimed zero-weight subgraph and, for every late vertex
/// v that ends a critical path p from u (all retimed weights 0), emits
///     lag(u) - lag(v) <= w(p) - 1
/// which the lag violates (there lag(u) - lag(v) = w(p)). Holds per-vertex
/// scratch, so one generator serves every round of a search.
class CriticalPathCuts {
 public:
  explicit CriticalPathCuts(const RetimeGraph& graph);

  /// Appends one cut per late critical-path end under `lag` to `cuts`;
  /// returns true when no vertex is late (the lag meets the period). Every
  /// vertex delay must be <= period.
  bool meets(const std::vector<int>& lag, int period,
             std::vector<PeriodCut>& cuts);

 private:
  const RetimeGraph& graph_;
  std::vector<int> arrival_;
  std::vector<std::int64_t> path_weight_;  ///< original registers on path
  std::vector<std::uint32_t> pred_;
  std::vector<std::uint32_t> indegree_;
  std::vector<std::uint32_t> ready_;
  std::vector<bool> extended_;
};

/// The largest vertex delay: no retiming reaches a smaller period.
int max_vertex_delay(const RetimeGraph& graph);

/// FEAS feasibility for target period c. Returns a legal lag assignment
/// achieving period <= c, or nullopt.
std::optional<std::vector<int>> feasible_retiming_feas(
    const RetimeGraph& graph, int period);

/// Min-period retiming via FEAS + integer binary search.
RetimingSolution min_period_retime_feas(const RetimeGraph& graph);

}  // namespace rtv
