#pragma once
// Decomposing a lag assignment into the paper's atomic retiming moves, and
// the one replay step every walk over a move plan goes through.
//
// The paper reasons about retiming as a *sequence of atomic moves* (Section
// 3.2), because safety depends on which moves occur — specifically on
// forward moves across non-justifiable elements (Theorem 4.5's k). A
// MoveReplay step checks one move's enabledness on a working netlist, shows
// an enabled move to an optional visitor (the Thm 5.1 certifier), applies
// and classifies it, and folds it into the running MoveSequenceStats. The
// sequencer only schedules those steps: it realizes any legal
// Leiserson–Saxe lag assignment as a move sequence. Greedy scheduling is
// stall-free: from any legal intermediate state with pending lag, some
// pending unit move is enabled (take a vertex with extremal pending lag
// that is minimal in the acyclic zero-weight subgraph among its peers).
// analyze_move_sequence (core/safety.hpp) and the lint plan analyzer
// (analysis/plan.hpp) step through an explicit plan instead.

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

/// The walk over a move plan, one step per move.
class MoveReplay {
 public:
  /// Replays onto `work`, which is mutated in place and must outlive the
  /// replay; every enabled move is shown to `before_move` if set.
  explicit MoveReplay(Netlist& work, MoveVisitor before_move = {});

  /// If `move` is enabled on the working netlist: shows it to the visitor,
  /// applies it, counts it in stats() and stores its class in `cls` (if
  /// non-null). Otherwise changes nothing. Returns the reason code.
  MoveReason step(const RetimingMove& move, MoveClass* cls = nullptr);

  /// Counts a classified move in stats() without applying it.
  void count(const RetimingMove& move, const MoveClass& cls);

  const MoveSequenceStats& stats() const { return stats_; }

 private:
  Netlist& work_;
  MoveVisitor before_move_;
  std::vector<std::uint32_t> forward_counts_;  ///< per non-justifiable slot
  MoveSequenceStats stats_;
};

/// Applies `lag` (legal for `graph` = RetimeGraph::from_netlist(netlist)) as
/// a sequence of atomic moves, showing each to `before_move` if set.
/// Requires a junction-normal netlist whose ports all have exactly one sink.
SequencedRetiming sequence_retiming(const Netlist& netlist,
                                    const RetimeGraph& graph,
                                    const std::vector<int>& lag,
                                    const MoveVisitor& before_move = {});

}  // namespace rtv
