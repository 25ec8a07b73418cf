#pragma once
// Two-valued (Boolean) cycle-accurate netlist simulator.
//
// Latches have no reset: the power-up state is whatever the caller supplies
// via set_state / eval. Each step() evaluates the combinational logic for
// the current (state, inputs), emits the primary-output values of that
// cycle, then clocks every latch with the value at its data pin.
//
// A Boolean run is a CLS run on definite values — the ternary extension of
// every cell agrees with the cell's Boolean function there — so this is a
// Bits-typed view of ClsSimulator rather than a second interpreter.

#include "netlist/netlist.hpp"
#include "sim/cls_sim.hpp"
#include "sim/vectors.hpp"

namespace rtv {

class BinarySimulator {
 public:
  /// The netlist must stay alive and structurally unchanged while the
  /// simulator exists. Not thread-safe (shared scratch buffers).
  explicit BinarySimulator(const Netlist& netlist);

  unsigned num_inputs() const { return cls_.num_inputs(); }
  unsigned num_outputs() const { return cls_.num_outputs(); }
  unsigned num_latches() const { return cls_.num_latches(); }

  /// Sets the current latch state (layout: Netlist::latches() order).
  void set_state(const Bits& latch_values);
  const Bits& state() const { return state_; }

  /// One clock cycle from the current state; returns this cycle's outputs.
  Bits step(const Bits& inputs);

  /// Runs a whole input sequence; returns one output vector per cycle.
  BitsSeq run(const BitsSeq& inputs);

  /// Pure transition-function query: outputs and next state for an explicit
  /// (state, inputs) pair. Does not touch the internal state.
  void eval(const Bits& state, const Bits& inputs, Bits& outputs,
            Bits& next_state) const;

  /// Packed variant for STG extraction: state/input bits packed little-endian
  /// into words (requires <= 64 latches and <= 64 inputs).
  void eval_packed(std::uint64_t state, std::uint64_t inputs,
                   std::uint64_t& outputs, std::uint64_t& next_state) const;

 private:
  ClsSimulator cls_;
  Bits state_;
  /// Ternary staging of each query, reused across calls.
  mutable Trits state_in_, inputs_in_, outputs_out_, next_out_;
};

}  // namespace rtv
