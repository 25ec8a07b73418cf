#pragma once
// Atomic retiming moves on junction-normal netlists (paper Section 3.2,
// Figure 6) and their safety classification (Section 4).
//
// A *forward* move across a combinational element removes one latch from
// each of its input wires and places one latch on each of its output wires;
// a *backward* move is the reverse. The four move kinds of Section 4 are
// {forward, backward} × {justifiable, non-justifiable element}; the only
// unsafe kind — the one that can violate safe replacement — is a forward
// move across a non-justifiable element (Prop 4.1/4.2).

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rtv {

enum class MoveDirection : std::uint8_t { kForward, kBackward };

const char* to_string(MoveDirection direction);

/// Inverse of to_string ("forward"/"backward"); throws ParseError on
/// anything else. Used by the JSON retiming-plan format.
MoveDirection move_direction_from_string(const std::string& text);

/// One atomic retiming move: direction + the combinational element moved
/// across.
struct RetimingMove {
  NodeId element;
  MoveDirection direction = MoveDirection::kForward;

  constexpr bool operator==(const RetimingMove&) const = default;
};

/// Section 4's four-way move classification.
struct MoveClass {
  MoveDirection direction = MoveDirection::kForward;
  bool justifiable = true;

  /// True for every kind except forward-across-non-justifiable
  /// (Prop 4.1: these preserve C ⊑ D, hence safe replacement).
  bool preserves_safe_replacement() const {
    return direction == MoveDirection::kBackward || justifiable;
  }
};

/// Classifies a move on a given netlist (queries element justifiability).
MoveClass classify_move(const Netlist& netlist, const RetimingMove& move);

/// Why a move is or is not enabled: kEnabled, or the first check it fails.
/// `index` names the pin or port that failed it (kPortFanout, kNoLatchOnPin,
/// kNoLatchOnPort).
struct MoveReason {
  enum Code : std::uint8_t {
    kEnabled,
    kDeadElement,       ///< not a live netlist node
    kNotCombinational,  ///< a latch, primary input or primary output
    kPortFanout,        ///< output port `index` does not drive exactly 1 pin
    kNoLatchOnPin,      ///< forward: input pin `index` is not latch-driven
    kNoLatchOnPort,     ///< backward: output port `index` feeds no latch
  };
  Code code = kEnabled;
  std::uint32_t index = 0;

  bool enabled() const { return code == kEnabled; }
  /// The element is a live combinational cell, whatever the latches say.
  bool element_ok() const {
    return code == kEnabled || code > kNotCombinational;
  }
};

/// Structural enabledness. Forward: every input pin of the element is driven
/// by a latch; backward: every output port of the element feeds a latch.
/// Both require the netlist to be junction-normal around the element and
/// every element port to have exactly one sink.
MoveReason move_reason(const Netlist& netlist, const RetimingMove& move);

inline bool can_apply(const Netlist& netlist, const RetimingMove& move) {
  return move_reason(netlist, move).enabled();
}

/// Applies an atomic move in place. Throws InvalidArgument if !can_apply.
/// Returns the classification of the applied move.
MoveClass apply_move(Netlist& netlist, const RetimingMove& move);

namespace detail {
/// apply_move without its enabledness check, for the move replay, which
/// has just had move_reason say yes on the same netlist.
MoveClass apply_enabled_move(Netlist& netlist, const RetimingMove& move);
}  // namespace detail

/// All currently enabled moves (both directions, every combinational
/// element). Deterministic order.
std::vector<RetimingMove> enabled_moves(const Netlist& netlist);

/// Statistics of an applied move sequence, feeding Theorem 4.5/4.6.
struct MoveSequenceStats {
  std::size_t total_moves = 0;
  std::size_t forward_moves = 0;
  std::size_t backward_moves = 0;
  std::size_t forward_across_non_justifiable = 0;
  /// max over elements of (forward moves across that non-justifiable
  /// element) — the k of Theorem 4.5: C^k ⊑ D.
  std::size_t max_forward_per_non_justifiable = 0;

  /// True iff the whole sequence preserves safe replacement (Cor 4.4).
  bool preserves_safe_replacement() const {
    return forward_across_non_justifiable == 0;
  }
  bool operator==(const MoveSequenceStats&) const = default;
  std::string summary() const;
  /// The guarantee: "safe replacement (C ⊑ D, Cor 4.4)" or
  /// "C^k ⊑ D (Thm 4.5)".
  std::string certificate() const;
};

}  // namespace rtv
