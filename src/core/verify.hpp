#pragma once
// Backend-agnostic CLS-equivalence verification — the unified entry point
// in front of the explicit pair-BFS engine (core/cls_equiv.hpp), the BDD
// symbolic-reachability backend (bdd/cls_bdd.hpp) and the AIG/SAT backend
// (sat/equiv.hpp). One VerifyOptions selects the backend and carries every
// engine's sub-options; every result is a ClsEquivalenceResult stamped with
// which backend decided (decided_by) and why (decided_reason).
//
// Every backend first tries the static fixpoint, then the certificate of a
// recovered lag: when `b` is a retiming of `a` (recover_lag in
// retime/graph.hpp) whose every move carries Thm 5.1's per-move
// certificate, the pair is proven with no engine run.
//
// Portfolio mode then runs an explicit stage, then a race. The explicit
// stage gives narrow designs (at most 6 inputs, pair BFS eligible) the
// packed pair BFS on the calling thread, within min(4096, 2^17 / 3^inputs)
// state pairs, then samples every pair it left open (64 sequences x 16
// cycles, refute-only); a conclusive answer there is returned stamped
// decided_by = kExplicit. Otherwise the BDD and SAT backends are raced
// concurrently on the rest of the budget, each under
// its own slice of it (so one engine exhausting its slice can never poison
// the other); the loser is cancelled as soon as either produces a
// conclusive (kProven) answer, and — whenever both engines conclude —
// their verdicts are cross-checked: a disagreement between two independent
// engines is a BackendDisagreement hard error, surfaced loudly and never
// silently resolved. Counterexamples from every backend are
// replay-validated against the concrete CLS simulators before being
// returned.

#include "bdd/cls_bdd.hpp"
#include "core/cls_equiv.hpp"
#include "core/safety.hpp"
#include "sat/equiv.hpp"

namespace rtv {

/// The consolidated option set of every equivalence backend. Engines read
/// only their own sub-struct; `backend` picks who answers.
struct VerifyOptions {
  EquivalenceBackend backend = EquivalenceBackend::kExplicit;
  /// Explicit engine (pair BFS / packed random sampling) knobs.
  ClsEquivOptions explicit_opts;
  BddEquivOptions bdd;
  SatEquivOptions sat;
  /// Try the ternary dataflow fixpoint (analysis/dataflow.hpp: every
  /// paired primary output carries the same singleton set), then the
  /// certificate of a recovered lag, before dispatching to the selected
  /// engine. Either proves with no state-space search, stamped decided_by =
  /// kStatic; neither can disprove, so an inconclusive attempt falls through.
  bool allow_static_proof = true;
};

/// Two independent engines returned contradictory conclusive verdicts on
/// the same query — a bug in one of them, never a degradation. Subclasses
/// InternalError so the CLI / serve layers map it onto their
/// internal-error envelopes (exit code 70 / "internal" error code).
class BackendDisagreement : public InternalError {
 public:
  explicit BackendDisagreement(const std::string& what)
      : InternalError(what) {}
};

/// Dispatching twin of check_cls_equivalence: answers the same query with
/// the backend selected in `options`. Requires equal PI and PO counts.
/// With a budget attached every backend degrades down the Verdict ladder
/// instead of throwing on exhaustion. Throws BackendDisagreement (portfolio
/// cross-check failure) or InternalError (a backend returned an invalid
/// counterexample) — both are engine bugs, not degradations.
ClsEquivalenceResult verify_cls_equivalence(const Netlist& a, const Netlist& b,
                                            const VerifyOptions& options = {},
                                            ResourceBudget* budget = nullptr);

/// verify_cls_equivalence without its certificate stage, for a caller that
/// has already judged the certificate of the plan relating `a` to `b`.
ClsEquivalenceResult verify_cls_equivalence_after_certificate(
    const Netlist& a, const Netlist& b, const VerifyOptions& options = {},
    ResourceBudget* budget = nullptr);

/// The verdict of a complete per-move certificate: proven, decided_by =
/// kStatic, reason "per-move certificate: " + report.certificate_census().
ClsEquivalenceResult certificate_result(const SafetyReport& report,
                                        ResourceBudget* budget);

}  // namespace rtv
