#pragma once
// State transition graphs (STGs) of synchronous netlists.
//
// An Stg is a completely-specified Mealy machine: `num_states` states,
// `num_inputs` input symbols (one per primary-input vector), and a packed
// Boolean output word per (state, input). Extracted exhaustively from a
// netlist — by the paper's model a circuit with n latches defines a
// completely-specified machine over all 2^n power-up states — or built
// directly for tests and quotient constructions.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/vectors.hpp"
#include "util/budget.hpp"

namespace rtv {

/// Default cap on num_states * num_inputs during extraction (2^24 entries).
inline constexpr std::uint64_t kDefaultStgEntryCap = std::uint64_t{1} << 24;

class Stg {
 public:
  /// Builds an STG from explicit tables. next.size() == out.size() ==
  /// num_states * num_inputs, laid out [state * num_inputs + input].
  Stg(std::uint64_t num_states, std::uint64_t num_inputs,
      unsigned num_output_bits, std::vector<std::uint32_t> next,
      std::vector<std::uint64_t> out);

  /// Exhaustive extraction: state ids are packed latch vectors (so state s
  /// corresponds to unpack_bits(s, L)), input symbols are packed PI vectors.
  /// One packed sweep simulates 64 (state, input) entries per word.
  ///
  /// Extraction cannot produce a partial machine, so with a budget attached
  /// it throws ResourceExhausted when the budget blows mid-extraction —
  /// governed entry points (validate_retiming, run_flow) catch that at the
  /// phase boundary and degrade.
  static Stg extract(const Netlist& netlist,
                     std::uint64_t entry_cap = kDefaultStgEntryCap,
                     ResourceBudget* budget = nullptr);

  /// The Mealy quotient of extract(netlist), streamed from the same sweep
  /// without building the raw machine: table for table
  /// quotient(extract(n), equivalence_classes(extract(n))). Where netlist
  /// structure shows that a row key (the latches read alongside a PI, and
  /// the values of the functions that read no PI) at least halves the
  /// states, the sweep simulates one representative state per key
  /// (docs/algorithms.md, "Row-keyed extraction"). Throws CapacityError
  /// above 2^16 states, ResourceExhausted like extract.
  static Stg extract_minimized(const Netlist& netlist,
                               std::uint64_t entry_cap = kDefaultStgEntryCap,
                               ResourceBudget* budget = nullptr);

  std::uint64_t num_states() const { return num_states_; }
  std::uint64_t num_inputs() const { return num_inputs_; }
  unsigned num_output_bits() const { return num_output_bits_; }

  std::uint32_t next_state(std::uint64_t state, std::uint64_t input) const {
    return next_[index(state, input)];
  }
  std::uint64_t output(std::uint64_t state, std::uint64_t input) const {
    return out_[index(state, input)];
  }

  /// Unchecked rows: num_inputs() entries of `state` (state < num_states()),
  /// rows of consecutive states adjacent.
  const std::uint32_t* next_row(std::uint64_t state) const {
    return next_.data() + state * num_inputs_;
  }
  const std::uint64_t* output_row(std::uint64_t state) const {
    return out_.data() + state * num_inputs_;
  }

  /// Runs the machine from `state` on a packed input sequence; returns the
  /// packed outputs per cycle and leaves the final state in `state`.
  std::vector<std::uint64_t> run(std::uint32_t& state,
                                 const std::vector<std::uint64_t>& inputs) const;

  /// Same arity (inputs and output bits)?
  bool compatible_with(const Stg& other) const;

  /// Disjoint union: states of `a` first, then states of `b` offset by
  /// a.num_states(). Requires compatible machines.
  static Stg disjoint_union(const Stg& a, const Stg& b);

  /// Restriction to a subset of states, which must be closed under the
  /// transition function. `keep[s]` selects states; `old_to_new` (optional)
  /// receives the id remapping.
  Stg restrict(const std::vector<bool>& keep,
               std::vector<std::uint32_t>* old_to_new = nullptr) const;

  /// Human-readable transition listing (small machines only).
  std::string to_string() const;

 private:
  std::size_t index(std::uint64_t state, std::uint64_t input) const;

  std::uint64_t num_states_;
  std::uint64_t num_inputs_;
  unsigned num_output_bits_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> out_;
};

/// The rows Stg::extract_minimized sweeps (docs/algorithms.md, "Row-keyed
/// extraction"). States with equal row keys have equal rows under every
/// input; `reps` lists the first state of each key in state order and
/// rep_of[s] is the index in `reps` of state s's key. Both are empty where
/// the key would not at least halve the states: every state is then its
/// own row. At most 16 latches.
struct RowKeys {
  std::vector<std::uint32_t> reps;
  std::vector<std::uint16_t> rep_of;
};
RowKeys row_keys(const Netlist& netlist, ResourceBudget* budget = nullptr);

// ---- minimize.cpp ----------------------------------------------------------

/// Partition of states into equivalence classes (Mealy equivalence: equal
/// output and equivalent successor for every input). Returns class ids,
/// dense in [0, num_classes). Budgeted variants here and below throw
/// ResourceExhausted on a blown budget (pass nullptr for ungoverned runs).
std::vector<std::uint32_t> equivalence_classes(const Stg& stg,
                                               ResourceBudget* budget = nullptr);

/// Number of classes in a dense class-id vector.
std::uint32_t num_classes(const std::vector<std::uint32_t>& classes);

/// State-minimized quotient machine. `classes` must come from
/// equivalence_classes(stg).
Stg quotient(const Stg& stg, const std::vector<std::uint32_t>& classes);

// ---- scc.cpp ---------------------------------------------------------------

struct SccResult {
  std::vector<std::uint32_t> component_of;  ///< per state
  std::uint32_t num_components = 0;
  /// Terminal (sink) SCCs of the condensation: no edge leaves the component.
  std::vector<bool> is_terminal;
};

/// Tarjan SCC over the edges {s -> next(s, a) : all inputs a}.
SccResult strongly_connected_components(const Stg& stg);

/// Pixley's essential resettability (SHE [Pix92]): the state-minimized
/// machine has exactly one terminal SCC.
bool essentially_resettable(const Stg& stg);

// ---- replaceability.cpp ----------------------------------------------------

/// State-machine implication C ⊑ D: every state of C is Mealy-equivalent to
/// some state of D. Requires compatible machines.
bool implies(const Stg& c, const Stg& d, ResourceBudget* budget = nullptr);

/// Per state of C: is it Mealy-equivalent to some state of D? (One
/// refinement of C ⊎ D; implies() asks whether all are.)
std::vector<bool> implied_states(const Stg& c, const Stg& d,
                                 ResourceBudget* budget = nullptr);

/// Safe replacement C ≼ D [PSAB94]: for every state s1 of C and every input
/// sequence, some state s0 of D produces the same outputs on that sequence
/// (s0 may depend on the sequence). Decided by a subset construction over
/// (C-state, set of still-consistent D-states).
bool safe_replacement(const Stg& c, const Stg& d,
                      ResourceBudget* budget = nullptr);

/// Witness for a safe-replacement violation: a C start state and an input
/// sequence no D state can match. Empty optional if C ≼ D holds.
struct SafeReplacementViolation {
  std::uint32_t c_start = 0;
  std::vector<std::uint64_t> inputs;  ///< packed input symbols
};
bool find_safe_replacement_violation(const Stg& c, const Stg& d,
                                     SafeReplacementViolation* witness,
                                     ResourceBudget* budget = nullptr);

// ---- delayed.cpp -----------------------------------------------------------

/// States still possible after `cycles` arbitrary-input clock cycles from an
/// arbitrary power-up state (the paper's delayed design D^n, Section 3.4).
std::vector<bool> states_after_delay(const Stg& stg, unsigned cycles);

/// The delayed design D^n as a machine (restriction to states_after_delay).
Stg delayed_design(const Stg& stg, unsigned cycles);

/// Smallest n <= max_cycles with delayed_design(c, n) ⊑ d, or -1 if none
/// (0 iff c ⊑ d). One refinement serves every n.
int min_delay_for_implication(const Stg& c, const Stg& d, unsigned max_cycles,
                              ResourceBudget* budget = nullptr);

/// Smallest n <= max_cycles with delayed_design(c, n) ≼ d, or -1 if none.
int min_delay_for_safe_replacement(const Stg& c, const Stg& d,
                                   unsigned max_cycles,
                                   ResourceBudget* budget = nullptr);

// ---- init_seq.cpp ----------------------------------------------------------

/// Does the packed input sequence drive every power-up state to one single
/// state (i.e., is it an initializing/synchronizing sequence)?
bool initializes(const Stg& stg, const std::vector<std::uint64_t>& inputs);

/// Breadth-first search for a shortest initializing sequence of length
/// <= max_len over the subset lattice. Returns false if none exists within
/// the bound. (Exponential worst case; intended for small machines.)
bool find_initializing_sequence(const Stg& stg, unsigned max_len,
                                std::vector<std::uint64_t>* sequence);

}  // namespace rtv
