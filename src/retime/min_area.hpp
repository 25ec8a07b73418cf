#pragma once
// Minimum-area (minimum register count) retiming, optionally under a clock-
// period constraint — the optimization [SR94] made practical at 50k-gate
// scale and the transformation whose *validity* the paper examines.
//
// LP formulation: registers after retiming = sum_e w(e) + sum_v a_v lag(v)
// with a_v = indeg(v) - outdeg(v), subject to the legality constraints
// lag(u) - lag(v) <= w(e). The LP dual is a transshipment problem solved
// with MinCostFlow; the lags returned are the least optimal ones (tight on
// every arc carrying flow), anchored at host = 0 — the same vector whatever
// optimal flow was found.
//
// Under a period c the exact [LS83] system adds lag(u) - lag(v) <= W(u,v) - 1
// for all D(u,v) > c. Those constraints are generated lazily [SR94]: the
// critical-path cuts of the read-out (CriticalPathCuts, min_period.hpp — the
// same generator FEAS uses) are added until the read-out meets the period.
// Each cut is implied by the exact system, so the result is its least
// optimal vector, with no W/D matrices and no vertex cap.
//
// Register-count model: one register per wire chain unit (edge weight sum).
// [SR94]'s fanout-sharing refinement (registers on sibling fanout edges
// share) is intentionally out of scope; see DESIGN.md.

#include <optional>
#include <vector>

#include "retime/graph.hpp"

namespace rtv {

struct MinAreaResult {
  std::vector<int> lag;
  std::int64_t registers_before = 0;
  std::int64_t registers_after = 0;
};

/// Unconstrained minimum-register retiming.
MinAreaResult min_area_retime(const RetimeGraph& graph);

/// Minimum-register retiming subject to clock period <= period. Returns
/// nullopt if the period is infeasible.
std::optional<MinAreaResult> min_area_retime_with_period(
    const RetimeGraph& graph, int period);

/// The paper's Section-1 recommendation as an optimizer: minimum-register
/// retiming restricted to transformations that preserve safe replacement
/// (Cor 4.4). Realized by the extra constraints lag(v) >= 0 for every
/// non-justifiable element v — the move sequencer changes each vertex's lag
/// monotonically, so a non-negative lag means no forward move ever crosses
/// it. The optimum can be worse than the unconstrained one; it is never
/// better. `netlist` must be the graph's origin (for justifiability).
MinAreaResult min_area_retime_safe(const RetimeGraph& graph,
                                   const Netlist& netlist);

}  // namespace rtv
