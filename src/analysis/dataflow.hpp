#pragma once
// Ternary dataflow: a worklist fixpoint over the value-set lattice of the
// paper's conservative three-valued simulation (CLS, Section 5).
//
// Abstract domain: every output port carries a *value set* S ⊆ {0, 1, X}
// ordered by inclusion (⊥ = ∅ below the singletons, {0,1,X} = ⊤). The
// engine propagates these sets through the netlist across an unbounded
// number of clock cycles — latches are seeded with {X} (the all-X power-up
// state of Section 5) and additionally absorb their data driver's set (the
// cross-cycle edge), every combinational cell gets the set-lifted version
// of its exact per-cell ternary extension (the same and3/or3/mux3/
// eval_ternary functions ClsSimulator uses), and fanout junctions copy.
//
// Soundness (checked against exhaustive ternary reachability and
// SymbolicMachine in tests/test_dataflow.cpp): every transfer function is
// the set-lift of the concrete CLS step, so by induction over cycles the
// fixpoint set of a port contains the port's concrete CLS value at *every*
// cycle of *every* ternary input sequence from all-X. Consequences:
//   * a latch whose set is exactly {X} never leaves X — no input sequence
//     can initialize it (RTV301);
//   * a port with a definite singleton set {0} or {1} is that constant on
//     every cycle of every run (RTV302);
//   * two designs whose paired primary outputs all have equal singleton
//     sets are CLS-equivalent outright — the static proof fast path of
//     verify_cls_equivalence (decided_by = "static").
//
// Monotone transfer functions over a finite lattice: the worklist
// terminates after at most 3 growth events per port, i.e. near-linearly in
// netlist size (measured in bench/bench_lint_scale.cpp).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "retime/moves.hpp"
#include "sim/port_map.hpp"
#include "ternary/trit.hpp"

namespace rtv {

/// A subset of {0, 1, X} as a 3-bit mask (bit = 1 << static_cast<int>(Trit)).
using TritSet = std::uint8_t;

inline constexpr TritSet kTritSetEmpty = 0;
inline constexpr TritSet kTritSetTop = 0b111;

constexpr TritSet trit_set_of(Trit t) {
  return static_cast<TritSet>(1u << static_cast<unsigned>(t));
}
constexpr bool trit_set_contains(TritSet s, Trit t) {
  return (s & trit_set_of(t)) != 0;
}
constexpr bool trit_set_is_singleton(TritSet s) {
  return s != 0 && (s & (s - 1)) == 0;
}

/// The unique element of a singleton set; nullopt otherwise.
std::optional<Trit> trit_set_singleton(TritSet s);

/// "{}", "{0}", "{0,X}", ... — for diagnostics and debugging.
std::string to_string_trit_set(TritSet s);

/// Convergence statistics of one fixpoint run (reported by `rtv lint` and
/// the serve lint job, and scaling-checked by bench_lint_scale).
struct DataflowStats {
  std::size_t num_ports = 0;      ///< dense ports in the netlist
  std::size_t iterations = 0;     ///< worklist pops until the fixpoint
  std::size_t updates = 0;        ///< port-set growth events
  std::size_t table_fallbacks = 0;///< table cells widened to ⊤ (cap blown)
};

/// The fixpoint: per-port value sets plus the port indexing that locates
/// them. Valid for the (structurally sound) netlist it was computed from,
/// which must outlive it and stay unmodified.
class DataflowResult {
 public:
  DataflowResult(const Netlist& netlist, PortMap ports,
                 std::vector<TritSet> sets, DataflowStats stats)
      : netlist_(&netlist), ports_(std::move(ports)), sets_(std::move(sets)),
        stats_(stats) {}

  const DataflowStats& stats() const { return stats_; }

  /// The fixpoint value set of an output port.
  TritSet set_for(PortRef port) const { return sets_[ports_.index(port)]; }

  /// The value set observed at an input pin (its driver's port set);
  /// ⊤ for an unconnected pin — anything could be there.
  TritSet pin_set(PinRef pin) const;

  /// The value set of primary output `po` (the set of its driver).
  TritSet output_set(NodeId po) const;

  /// True iff the latch can never leave X: its set is exactly {X}, so CLS
  /// initialization is impossible for it (RTV301).
  bool latch_stuck_at_x(NodeId latch) const {
    return set_for(PortRef(latch, 0)) == trit_set_of(Trit::kX);
  }

  /// The definite constant a port holds on every cycle of every run, if
  /// its set is a definite singleton (RTV302).
  std::optional<bool> constant_value(PortRef port) const;

 private:
  const Netlist* netlist_;
  PortMap ports_;
  std::vector<TritSet> sets_;
  DataflowStats stats_;
};

/// Knobs for the fixpoint engine.
struct DataflowOptions {
  /// Table cells are evaluated by enumerating the product of their pins'
  /// value sets (exactly lifting TruthTable::eval_ternary). Products larger
  /// than this cap are widened to ⊤ per output — always sound, never exact.
  std::size_t table_product_cap = 4096;
};

/// Runs the worklist fixpoint. Requires a structurally sound netlist in the
/// connectivity sense (every pin of a live cell resolvable); unconnected
/// pins are tolerated and read as ⊤. Combinational cycles do not diverge
/// (no topological order is needed) — ports fed only through such a cycle
/// stay ⊥, i.e. no CLS value is attributed to them.
DataflowResult run_dataflow(const Netlist& netlist,
                            const DataflowOptions& options = {});

// ---- static retiming-safety certification (RTV305) -------------------------

/// The static argument that certified a move (kNone: not certified).
enum class CertificateArgument : std::uint8_t {
  kNone, kAllX, kUnobservable, kFixpoint
};

/// Verdict for one move of a plan: `certified` means the move provably
/// preserves the CLS-observable behaviour (Cor 5.3's conclusion) without
/// any engine run; `argument` and `reason` name the static argument that
/// proved it, or `reason` says why certification was declined.
struct MoveCertificate {
  bool certified = false;
  CertificateArgument argument = CertificateArgument::kNone;
  std::string reason;
};

/// Certifies one enabled move at its own position (`before` is the design
/// it applies to) by the first static argument that holds:
///   1. the element preserves all-X (Theorem 5.1's condition);
///   2. the element is unobservable. `observable` is observable_mask() of
///      the plan's design, which no move changes for a combinational
///      element: moves only add or remove latches on wires;
///   3. with `try_fixpoint`, static_cls_equivalence_proof(before, after).
/// Certified moves compose (Cor 5.2).
MoveCertificate certify_move(const Netlist& before, const RetimingMove& move,
                             const std::vector<bool>& observable,
                             bool try_fixpoint = true,
                             const DataflowOptions& options = {});

/// Whole-design static CLS-equivalence proof: when every paired primary
/// output of `a` and `b` has the same singleton fixpoint set, both outputs
/// are that same value on every cycle of every run, so the designs are
/// CLS-equivalent — returns the one-line proof description. Returns nullopt
/// when the fixpoint cannot decide (which is *not* evidence of differing).
/// Requires equal primary-output counts.
std::optional<std::string> static_cls_equivalence_proof(
    const Netlist& a, const Netlist& b, const DataflowOptions& options = {});

}  // namespace rtv
