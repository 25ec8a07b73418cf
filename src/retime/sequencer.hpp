#pragma once
// Decomposing a lag assignment into the paper's atomic retiming moves.
//
// The paper reasons about retiming as a *sequence of atomic moves* (Section
// 3.2), because safety depends on which moves occur — specifically on
// forward moves across non-justifiable elements (Theorem 4.5's k). The
// sequencer realizes any legal Leiserson–Saxe lag assignment as such a
// sequence, applying it move-by-move to a working copy of the netlist and
// classifying every move. Greedy scheduling is stall-free: from any legal
// intermediate state with pending lag, some pending unit move is enabled
// (take a vertex with extremal pending lag that is minimal in the acyclic
// zero-weight subgraph among its peers).

#include <functional>
#include <vector>

#include "netlist/netlist.hpp"
#include "retime/graph.hpp"
#include "retime/moves.hpp"

namespace rtv {

struct SequencedRetiming {
  /// The fully retimed netlist. Combinational NodeIds are stable: they are
  /// the same slots as in the input netlist (only latches are created and
  /// destroyed), so `moves[i].element` is meaningful in both.
  Netlist retimed;
  std::vector<RetimingMove> moves;  ///< applied order
  std::vector<MoveClass> classes;   ///< classification per move
  MoveSequenceStats stats;
};

/// Called once per move, just before it is applied, with the working
/// netlist at that move's own position in the sequence.
using MoveVisitor =
    std::function<void(const Netlist& before, const RetimingMove& move)>;

/// Applies `lag` (legal for `graph` = RetimeGraph::from_netlist(netlist)) as
/// a sequence of atomic moves, showing each to `before_move` if set.
/// Requires a junction-normal netlist whose ports all have exactly one sink.
SequencedRetiming sequence_retiming(const Netlist& netlist,
                                    const RetimeGraph& graph,
                                    const std::vector<int>& lag,
                                    const MoveVisitor& before_move = {});

/// Folds one classified move into running statistics. `forward_counts` must
/// be sized by netlist slot count and zero-initialized; it accumulates
/// forward moves per non-justifiable element.
void accumulate_move(const RetimingMove& move, const MoveClass& cls,
                     std::vector<std::uint32_t>& forward_counts,
                     MoveSequenceStats& stats);

}  // namespace rtv
