#include "core/validator.hpp"

#include <sstream>

#include "stg/stg.hpp"

namespace rtv {

std::string RetimingValidation::summary() const {
  std::ostringstream os;
  os << "safety:   " << safety.summary() << "\n";
  os << "cls:      " << cls.summary() << "\n";
  os << "decided:  " << to_string(cls.decided_by) << " (" << cls.decided_reason
     << ")\n";
  if (stg_checked) {
    os << "stg:      C " << (implication ? "⊑" : "⋢") << " D, C "
       << (safe_replacement ? "≼" : "⋠") << " D, min delay n with C^n ⊑ D: "
       << min_delay_implication << "; quotients C " << c_quotient_states
       << ", D " << d_quotient_states << " states\n";
    os << "theorems: " << (theorems_hold ? "consistent" : "VIOLATED") << "\n";
  } else if (stg_budget_exhausted) {
    os << "stg:      skipped (resource budget exhausted)\n";
  } else {
    os << "stg:      skipped (design beyond exact-analysis caps)\n";
  }
  os << "verdict:  " << to_string(verdict) << " (" << usage.summary() << ")\n";
  return os.str();
}

RetimingValidation validate_retiming(const Netlist& original,
                                     const RetimeGraph& graph,
                                     const std::vector<int>& lag,
                                     const ValidationOptions& options) {
  ResourceBudget budget(options.budget, options.cancel);
  RetimingValidation v;
  SequencedRetiming seq;
  v.safety = analyze_lag_retiming(original, graph, lag, &seq);
  v.retimed = std::move(seq.retimed);
  // Certificate first: every move keeps relation R (Thm 5.1 or another
  // static argument) and Cor 5.2 composes them, so no engine need run.
  // Anything less falls through to the selected backend.
  if (options.verify.allow_static_proof && v.safety.every_move_certified() &&
      budget.checkpoint("validate/certificate")) {
    v.cls = certificate_result(v.safety, &budget);
  } else {
    v.cls = verify_cls_equivalence_after_certificate(original, v.retimed,
                                                     options.verify, &budget);
  }

  // Corollary 5.3 is unconditional (given the all-X-preserving library);
  // a CLS mismatch falsifies the paper (or this implementation). A found
  // counterexample is definitive even in degraded modes; an exhausted
  // partial report never claims inequivalence, so this stays sound.
  if (original.all_cells_preserve_all_x() &&
      v.retimed.all_cells_preserve_all_x() && !v.cls.equivalent) {
    v.theorems_hold = false;
  }

  const auto fits = [&](const Netlist& n) {
    return n.latches().size() <= options.max_stg_latches &&
           n.primary_inputs().size() <= options.max_stg_inputs;
  };
  if (fits(original) && fits(v.retimed)) {
    if (budget.exhausted()) {
      v.stg_budget_exhausted = true;
    } else {
      try {
        // Compute everything into locals and commit at the end: an
        // exhaustion mid-phase must not leave half-true exact flags. ⊑, ≼
        // and D^n depend only on state behaviours, so the Mealy quotients
        // decide them exactly (docs/algorithms.md).
        const Stg d =
            Stg::extract_minimized(original, kDefaultStgEntryCap, &budget);
        const Stg c =
            Stg::extract_minimized(v.retimed, kDefaultStgEntryCap, &budget);
        // C ⊑ D is the minimal delay's n = 0, read off the same refinement;
        // ≼ is decided on its own, so the Prop 3.1 check below is not vacuous.
        const int min_delay =
            min_delay_for_implication(c, d, options.max_delay_search, &budget);
        const bool implication = min_delay == 0;
        const bool safe_repl = safe_replacement(c, d, &budget);
        v.stg_checked = true;
        v.implication = implication;
        v.safe_replacement = safe_repl;
        v.min_delay_implication = min_delay;
        v.c_quotient_states = c.num_states();
        v.d_quotient_states = d.num_states();

        // Cross-check the static guarantees against exact ground truth.
        if (v.safety.safe_replacement_guaranteed &&
            !(v.implication && v.safe_replacement)) {
          v.theorems_hold = false;  // Prop 4.1 / Cor 4.4 violated
        }
        if (v.min_delay_implication < 0 ||
            static_cast<std::size_t>(v.min_delay_implication) >
                v.safety.delay_bound) {
          v.theorems_hold = false;  // Thm 4.5 violated
        }
        if (v.implication && !v.safe_replacement) {
          v.theorems_hold = false;  // Prop 3.1 violated
        }
      } catch (const ResourceExhausted&) {
        v.stg_budget_exhausted = true;
      }
    }
  }
  v.verdict = budget.exhausted() ? Verdict::kExhausted : v.cls.verdict;
  v.usage = budget.usage();
  return v;
}

}  // namespace rtv
