#pragma once
// Retiming safety analysis (paper Section 4).
//
// Classifies a retiming — given either as a lag assignment or as an explicit
// move sequence — into the paper's taxonomy in one MoveReplay
// (retime/sequencer.hpp) that applies, classifies and certifies every move,
// and derives the guarantees:
//   * no forward move across a non-justifiable element  =>  C ⊑ D, hence
//     C ≼ D (Prop 4.1 + Cor 4.4): drop-in safe replacement.
//   * otherwise, with at most k forward moves across any single
//     non-justifiable element: C^k ⊑ D (Thm 4.5) — safe after k settle
//     cycles; and test sets for D remain test sets for C^k (Thm 4.6).

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "netlist/netlist.hpp"
#include "retime/graph.hpp"
#include "retime/moves.hpp"
#include "retime/sequencer.hpp"

namespace rtv {

struct SafetyReport {
  MoveSequenceStats stats;
  /// Cor 4.4: every environment sees identical behaviour (C ≼ D).
  bool safe_replacement_guaranteed = false;
  /// Thm 4.5 bound: C^k ⊑ D. Zero when safe_replacement_guaranteed.
  std::size_t delay_bound = 0;
  /// Thm 5.1's certificate for each move (analysis/dataflow.hpp), taken in
  /// the replay that applies the moves.
  std::vector<MoveCertificate> move_certificates;
  /// Every move that breaks safe replacement in the Section-4 taxonomy was
  /// individually certified harmless by the ternary dataflow fixpoint
  /// (RTV305): this concrete sequence preserves every CLS trace even
  /// though its move classes alone cannot guarantee it. False means only
  /// "no certificate"; a sequence with no unsafe moves has nothing to
  /// certify and stays false.
  bool cls_certified_safe = false;

  /// Every move certified (vacuously so for no moves): Cor 5.2 then makes
  /// the retimed design CLS-equivalent to the original.
  bool every_move_certified() const {
    return std::all_of(move_certificates.begin(), move_certificates.end(),
                       [](const MoveCertificate& c) { return c.certified; });
  }

  /// Moves per certificate argument: "N moves (a all-X, b unobservable,
  /// c fixpoint)", with ", d uncertified" when some move has none.
  std::string certificate_census() const;

  std::string summary() const;
};

/// Analyzes a lag assignment by sequencing it into atomic moves; also
/// returns the retimed netlist via `sequenced` if non-null. With `census`
/// false only every_move_certified() is wanted: moves after the first
/// uncertified one are marked uncertified without being tried.
SafetyReport analyze_lag_retiming(const Netlist& netlist,
                                  const RetimeGraph& graph,
                                  const std::vector<int>& lag,
                                  SequencedRetiming* sequenced = nullptr,
                                  bool census = true);

/// Analyzes an explicit move sequence, applying it to a copy of the
/// netlist; the result is written to `retimed` if non-null.
SafetyReport analyze_move_sequence(const Netlist& netlist,
                                   const std::vector<RetimingMove>& moves,
                                   Netlist* retimed = nullptr);

}  // namespace rtv
