#include "retime/sequencer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rtv {

MoveReplay::MoveReplay(Netlist& work, MoveVisitor before_move)
    : work_(work), before_move_(std::move(before_move)),
      forward_counts_(work.num_slots(), 0) {}

MoveReason MoveReplay::step(const RetimingMove& move, MoveClass* cls) {
  const MoveReason reason = move_reason(work_, move);
  if (!reason.enabled()) return reason;
  if (before_move_) before_move_(work_, move);
  const MoveClass applied = detail::apply_enabled_move(work_, move);
  count(move, applied);
  if (cls != nullptr) *cls = applied;
  return reason;
}

void MoveReplay::count(const RetimingMove& move, const MoveClass& cls) {
  ++stats_.total_moves;
  if (cls.direction == MoveDirection::kBackward) {
    ++stats_.backward_moves;
    return;
  }
  ++stats_.forward_moves;
  if (cls.justifiable) return;
  ++stats_.forward_across_non_justifiable;
  // Moves create and destroy latches only, so every element's slot predates
  // the replay.
  RTV_CHECK(move.element.value < forward_counts_.size());
  const std::uint32_t count = ++forward_counts_[move.element.value];
  stats_.max_forward_per_non_justifiable =
      std::max<std::size_t>(stats_.max_forward_per_non_justifiable, count);
}

SequencedRetiming sequence_retiming(const Netlist& netlist,
                                    const RetimeGraph& graph,
                                    const std::vector<int>& lag,
                                    const MoveVisitor& before_move) {
  RTV_REQUIRE(graph.legal_retiming(lag), "sequence_retiming: illegal retiming");

  SequencedRetiming result;
  result.retimed = netlist;  // working copy, mutated move by move
  MoveReplay replay(result.retimed, before_move);

  // applied[v] tracks how many net backward moves have been performed
  // across vertex v; the goal is applied == lag.
  std::vector<int> applied(graph.num_vertices(), 0);
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
      MoveClass cls;
      if (!replay.step(move, &cls).enabled()) continue;
      applied[v] += (dir == MoveDirection::kBackward) ? 1 : -1;
      --pending_total;
      progress = true;
      result.moves.push_back(move);
      result.classes.push_back(cls);
    }
    RTV_CHECK_MSG(progress,
                  "sequencer stalled: no enabled move despite pending lag");
  }
  result.stats = replay.stats();
  return result;
}

}  // namespace rtv
