#pragma once
// Static analysis of a retiming-move plan (paper Section 4), without
// touching the design.
//
// A plan is an ordered list of atomic RetimingMoves. The analyzer steps
// through it with the same MoveReplay the sequencer uses
// (retime/sequencer.hpp), on a working copy, so the input netlist stays
// byte-identical. A move that is not enabled at its plan position is
// reported with its reason code and skipped, so the rest of the plan is
// still checked against a consistent state. (Replaying the moves as
// latch-count deltas on the Leiserson–Saxe retiming graph gives the same
// enabledness and census move by move; tests/test_move_replay.cpp keeps
// that replay as the oracle.)
//
// Classification is position-independent (justifiability never changes as
// latches move), so the analyzer derives the full Section-4 census and the
// Theorem 4.5 certificate k = max forward moves across any single
// non-justifiable element: C^k ⊑ D, and test sets survive with a k-cycle
// prefix (Thm 4.6).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "netlist/netlist.hpp"
#include "retime/moves.hpp"

namespace rtv {

/// Per-move result of the replay.
struct PlanMoveCheck {
  RetimingMove move;
  MoveClass cls;            ///< meaningful only when element_ok
  bool element_ok = false;  ///< element is a live combinational node
  bool enabled = false;     ///< enabled at its plan position (and applied)
  MoveReason reason;        ///< why not, when !element_ok or !enabled
  /// Thm 5.1's certificate of an enabled unsafe-class move, when asked for.
  std::optional<MoveCertificate> certificate;
};

/// Result of analyze_plan. `stats` counts every well-formed move (enabled
/// or not); for a feasible plan it equals the stats apply_move would have
/// produced, and k() is the Theorem 4.5 certificate.
struct PlanAnalysis {
  /// Preconditions held: structurally sound + junction-normal netlist.
  bool analyzable = false;
  std::string precondition_error;  ///< set when !analyzable

  std::vector<PlanMoveCheck> moves;
  MoveSequenceStats stats;

  /// Every move well-formed and enabled in plan order.
  bool feasible = false;

  /// The Theorem 4.5 bound: C^k ⊑ D after this plan.
  std::size_t k() const { return stats.max_forward_per_non_justifiable; }
};

/// Analyzes `moves` against `netlist` (never mutated). With
/// `certify_unsafe`, every enabled move that breaks safe replacement in the
/// Section-4 taxonomy is certified at its own position (certify_move, all
/// three arguments).
PlanAnalysis analyze_plan(const Netlist& netlist,
                          const std::vector<RetimingMove>& moves,
                          bool certify_unsafe = false);

// ---- JSON plan files -------------------------------------------------------
//
//   { "moves": [ {"element": "J1", "direction": "forward"},
//                {"node": 12,     "direction": "backward"} ] }
//
// A move names its element by netlist node name ("element") or by NodeId
// ("node"); when both are present the name wins.

struct RetimingPlan {
  std::vector<RetimingMove> moves;
};

/// Parses a JSON plan, resolving elements against `netlist`. Throws
/// ParseError on malformed JSON or unresolvable elements.
RetimingPlan plan_from_json(const std::string& text, const Netlist& netlist);

/// Reads a plan file. Throws Error if the file cannot be opened.
RetimingPlan load_plan(const std::string& path, const Netlist& netlist);

/// Serializes moves as the JSON plan format (names + node ids).
std::string plan_to_json(const Netlist& netlist,
                         const std::vector<RetimingMove>& moves);

}  // namespace rtv
