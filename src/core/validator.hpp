#pragma once
// End-to-end retiming validation: the executable form of the paper.
//
// Given an original design and a retiming (lag assignment), the validator
//   1. sequences the retiming into classified atomic moves (Section 3.2),
//   2. derives the static safety verdict (Cor 4.4 / Thm 4.5),
//   3. checks CLS equivalence from all-X (Cor 5.3 — must always hold):
//      certificate, else engine. When every move carries Thm 5.1's
//      per-move certificate (from step 1's replay), the gate is proven
//      with no engine run; otherwise verify_cls_equivalence decides,
//   4. when the designs are small enough, extracts both STGs and decides
//      the exact relations: C ⊑ D, C ≼ D, and the minimal n with C^n ⊑ D,
//      cross-checking the static bounds against ground truth.

#include <optional>
#include <string>
#include <vector>

#include "core/safety.hpp"
#include "core/verify.hpp"
#include "netlist/netlist.hpp"
#include "retime/graph.hpp"

namespace rtv {

struct ValidationOptions {
  /// The CLS equivalence gate: backend selection plus every engine's
  /// sub-options (core/verify.hpp). The explicit engine stays the default.
  VerifyOptions verify;
  /// Exact STG analysis runs only when both designs fit these caps.
  unsigned max_stg_latches = 14;
  unsigned max_stg_inputs = 8;
  /// Horizon for the minimal-delay search (Thm 4.5 cross-check).
  unsigned max_delay_search = 16;
  /// Resource governance. One ResourceBudget built from these limits spans
  /// the whole validation (CLS + STG phases share the wall clock). The
  /// defaults leave everything unlimited except the standard BDD node cap.
  ResourceLimits budget;
  /// Cooperative cancellation: request_cancel() from any thread makes the
  /// validation degrade at its next checkpoint.
  CancellationToken cancel;
};

struct RetimingValidation {
  SafetyReport safety;
  ClsEquivalenceResult cls;
  Netlist retimed;

  bool stg_checked = false;
  bool implication = false;          ///< C ⊑ D (exact)
  bool safe_replacement = false;     ///< C ≼ D (exact)
  int min_delay_implication = -1;    ///< least n with C^n ⊑ D (exact)
  /// States of the Mealy quotients of C and D the exact relations ran on
  /// (0 unless stg_checked).
  std::uint64_t c_quotient_states = 0;
  std::uint64_t d_quotient_states = 0;
  /// STG phase was within caps but aborted by the resource budget.
  bool stg_budget_exhausted = false;

  /// True iff every exact result is consistent with the paper's theorems
  /// (set by validate_retiming; a false value would falsify the paper).
  bool theorems_hold = true;

  /// Overall label for this validation: kExhausted whenever the budget
  /// blew anywhere (the report is partial), otherwise the CLS verdict.
  /// A degraded validation never reports verdict kProven.
  Verdict verdict = Verdict::kProven;
  /// Resource consumption of the whole validation.
  ResourceUsage usage;

  std::string summary() const;
};

/// graph must be RetimeGraph::from_netlist(original); lag must be legal.
RetimingValidation validate_retiming(const Netlist& original,
                                     const RetimeGraph& graph,
                                     const std::vector<int>& lag,
                                     const ValidationOptions& options = {});

}  // namespace rtv
