#include "retime/sequencer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rtv {

void accumulate_move(const RetimingMove& move, const MoveClass& cls,
                     std::vector<std::uint32_t>& forward_counts,
                     MoveSequenceStats& stats) {
  ++stats.total_moves;
  if (cls.direction == MoveDirection::kForward) {
    ++stats.forward_moves;
    if (!cls.justifiable) {
      ++stats.forward_across_non_justifiable;
      RTV_CHECK(move.element.value < forward_counts.size());
      const std::uint32_t count = ++forward_counts[move.element.value];
      stats.max_forward_per_non_justifiable = std::max<std::size_t>(
          stats.max_forward_per_non_justifiable, count);
    }
  } else {
    ++stats.backward_moves;
  }
}

SequencedRetiming sequence_retiming(const Netlist& netlist,
                                    const RetimeGraph& graph,
                                    const std::vector<int>& lag,
                                    const MoveVisitor& before_move) {
  RTV_REQUIRE(graph.legal_retiming(lag), "sequence_retiming: illegal retiming");

  SequencedRetiming result;
  result.retimed = netlist;  // working copy, mutated move by move
  Netlist& work = result.retimed;

  // applied[v] tracks how many net backward moves have been performed
  // across vertex v; the goal is applied == lag.
  std::vector<int> applied(graph.num_vertices(), 0);
  std::vector<std::uint32_t> forward_counts(netlist.num_slots(), 0);

  std::int64_t pending_total = 0;
  for (std::uint32_t v = 2; v < graph.num_vertices(); ++v) {
    pending_total += std::abs(lag[v]);
  }

  while (pending_total > 0) {
    bool progress = false;
    for (std::uint32_t v = 2; v < graph.num_vertices(); ++v) {
      if (applied[v] == lag[v]) continue;
      const MoveDirection dir = applied[v] < lag[v] ? MoveDirection::kBackward
                                                    : MoveDirection::kForward;
      const RetimingMove move{graph.vertex_origin(v), dir};
      if (!can_apply(work, move)) continue;
      if (before_move) before_move(work, move);
      const MoveClass cls = apply_move(work, move);
      applied[v] += (dir == MoveDirection::kBackward) ? 1 : -1;
      --pending_total;
      progress = true;
      result.moves.push_back(move);
      result.classes.push_back(cls);
      accumulate_move(move, cls, forward_counts, result.stats);
    }
    RTV_CHECK_MSG(progress,
                  "sequencer stalled: no enabled move despite pending lag");
  }
  return result;
}

}  // namespace rtv
