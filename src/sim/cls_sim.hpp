#pragma once
// Conservative three-valued logic simulator (CLS) — paper Section 5.
//
// The CLS evaluates each combinational cell with the exact ternary extension
// of its own function ("local propagation" of X: 0·X = 0 but 1·X = X) and
// begins operation with every latch holding X. Because propagation is local,
// the CLS forgets correlations between X values — precisely the information
// forward retiming across a non-justifiable element destroys — which is why
// retiming preserves CLS-observable behaviour (Theorem 5.1, Corollary 5.3).
//
// eval() is one of the two netlist interpreters in src/sim (the other is the
// packed engine, sim/packed_sim.hpp). It is the scalar reference the packed
// engine, the AIG/BDD CLS encodings and counterexample replays are checked
// against, and BinarySimulator runs it on definite values.

#include "netlist/netlist.hpp"
#include "sim/port_map.hpp"
#include "sim/vectors.hpp"

namespace rtv {

class ClsSimulator {
 public:
  /// The netlist must stay alive and structurally unchanged while the
  /// simulator exists. All latches start at X. Not thread-safe.
  explicit ClsSimulator(const Netlist& netlist);

  unsigned num_inputs() const { return static_cast<unsigned>(netlist_.primary_inputs().size()); }
  unsigned num_outputs() const { return static_cast<unsigned>(netlist_.primary_outputs().size()); }
  unsigned num_latches() const { return static_cast<unsigned>(netlist_.latches().size()); }

  /// Resets every latch to X (the CLS power-up convention).
  void reset_to_all_x();

  /// Sets an explicit ternary latch state (Netlist::latches() order).
  void set_state(const Trits& latch_values);
  const Trits& state() const { return state_; }

  /// True iff every latch currently holds a definite value — the CLS notion
  /// of the design being *reset* by the input sequence applied so far.
  bool is_fully_initialized() const;

  /// One clock cycle; returns this cycle's ternary primary outputs.
  Trits step(const Trits& inputs);

  /// Convenience overload for definite inputs.
  Trits step(const Bits& inputs) { return step(to_trits(inputs)); }

  /// Runs a whole ternary input sequence.
  TritsSeq run(const TritsSeq& inputs);
  TritsSeq run(const BitsSeq& inputs) { return run(to_trits(inputs)); }

  /// Pure transition-function query; does not touch the internal state.
  void eval(const Trits& state, const Trits& inputs, Trits& outputs,
            Trits& next_state) const;

 private:
  const Netlist& netlist_;
  PortMap ports_;
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> io_pos_;
  Trits state_;
  mutable std::vector<Trit> values_;
  mutable Trits table_in_scratch_;
};

}  // namespace rtv
