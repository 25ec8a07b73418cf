// Delayed designs (paper Section 3.4): D^n is D restricted to the states
// still possible after n clock cycles of arbitrary inputs from an arbitrary
// power-up state. D^n discards transient behaviour only; its state set is
// the n-fold image of the full state set under the transition relation.

#include "stg/stg.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {

/// T(states): the successors of `states` under every input.
std::vector<bool> image(const Stg& stg, const std::vector<bool>& states) {
  std::vector<bool> out(stg.num_states(), false);
  for (std::uint64_t s = 0; s < stg.num_states(); ++s) {
    if (!states[s]) continue;
    for (std::uint64_t a = 0; a < stg.num_inputs(); ++a) {
      out[stg.next_state(s, a)] = true;
    }
  }
  return out;
}

}  // namespace

std::vector<bool> states_after_delay(const Stg& stg, unsigned cycles) {
  std::vector<bool> current(stg.num_states(), true);
  for (unsigned k = 0; k < cycles; ++k) {
    std::vector<bool> next = image(stg, current);
    if (next == current) break;  // a fixpoint; further delay is a no-op
    current = std::move(next);
  }
  return current;
}

Stg delayed_design(const Stg& stg, unsigned cycles) {
  // Image_0 = all states, Image_{k+1} = T(Image_k). The chain is monotone
  // decreasing (Image_1 ⊆ Image_0, and T preserves inclusion), so Image_n is
  // closed under transitions: next(s, a) ∈ Image_{n+1} ⊆ Image_n.
  return stg.restrict(states_after_delay(stg, cycles));
}

int min_delay_for_implication(const Stg& c, const Stg& d, unsigned max_cycles,
                              ResourceBudget* budget) {
  // C^n restricts C to a transition-closed state set, which keeps every
  // state's behaviour, so C^n ⊑ D iff each state of C^n is one the single
  // refinement of C ⊎ D matches to a D state (docs/algorithms.md).
  const std::vector<bool> matched = implied_states(c, d, budget);
  std::vector<bool> current(c.num_states(), true);
  for (unsigned n = 0; n <= max_cycles; ++n) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/delay-step");
    bool inside = true;
    for (std::uint64_t s = 0; s < c.num_states() && inside; ++s) {
      inside = !current[s] || matched[s];
    }
    if (inside) return static_cast<int>(n);
    std::vector<bool> next = image(c, current);
    if (next == current) return -1;  // a fixpoint: every later C^n is this one
    current = std::move(next);
  }
  return -1;
}

int min_delay_for_safe_replacement(const Stg& c, const Stg& d,
                                   unsigned max_cycles,
                                   ResourceBudget* budget) {
  for (unsigned n = 0; n <= max_cycles; ++n) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/delay-step");
    if (safe_replacement(delayed_design(c, n), d, budget)) {
      return static_cast<int>(n);
    }
  }
  return -1;
}

}  // namespace rtv
