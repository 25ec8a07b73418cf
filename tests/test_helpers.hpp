#pragma once
// Shared builders and assertion helpers for the test suite.

#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "gen/random_circuits.hpp"
#include "netlist/netlist.hpp"
#include "retime/graph.hpp"
#include "sim/vectors.hpp"
#include "util/rng.hpp"

namespace rtv::testing {

/// A 1-latch toggle: latch t, next = t XOR in, out = t.
/// (Junction-normal after junctionize; used as a tiny sequential fixture.)
inline Netlist toggle_circuit() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(PortRef(t, 0), PinRef(x, 0));
  n.connect(PortRef(in, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(t, 0));
  n.connect(PortRef(t, 0), PinRef(out, 0));
  n.junctionize();
  n.check_valid(true);
  return n;
}

/// Pure combinational: out = a AND b.
inline Netlist and2_circuit() {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId o = n.add_output("o");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "g");
  n.connect(a, g, 0);
  n.connect(b, g, 1);
  n.connect(PortRef(g, 0), PinRef(o, 0));
  n.check_valid(true);
  return n;
}

/// Two-latch pipeline: in -> L0 -> NOT -> L1 -> out. Retimable both ways.
inline Netlist inverter_pipeline() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId l0 = n.add_latch("L0");
  const NodeId l1 = n.add_latch("L1");
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
  n.connect(in, l0);
  n.connect(l0, inv);
  n.connect(inv, l1);
  n.connect(PortRef(l1, 0), PinRef(out, 0));
  n.check_valid(true);
  return n;
}

/// inverter_pipeline fed by a 7-input AND: one input more than the
/// portfolio's explicit stage takes, so a portfolio query on it goes
/// straight to the BDD/SAT race. Its output takes 0, 1 and X, so the
/// static fixpoint cannot prove it against itself either.
inline Netlist wide_pipeline() {
  Netlist n;
  const NodeId g = n.add_gate(CellKind::kAnd, 7, "g");
  for (std::uint32_t i = 0; i < 7; ++i) {
    n.connect(n.add_input("in" + std::to_string(i)), g, i);
  }
  const NodeId out = n.add_output("out");
  const NodeId l0 = n.add_latch("L0");
  const NodeId l1 = n.add_latch("L1");
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
  n.connect(g, l0);
  n.connect(l0, inv);
  n.connect(inv, l1);
  n.connect(PortRef(l1, 0), PinRef(out, 0));
  n.check_valid(true);
  return n;
}

/// `n` with one BUF on the wire into its first primary output: still
/// CLS-equivalent to `n`, but one cell more, so no lag relates the two and
/// the per-move certificate declines the pair.
inline Netlist with_output_buffer(Netlist n) {
  const PinRef out(n.primary_outputs().front(), 0);
  n.insert_on_wire(n.driver(out), out, CellKind::kBuf);
  n.check_valid(true);
  return n;
}

/// const0 -> latch -> XOR with input a -> out. Moving the latch backward
/// across the constant (what min-area retiming does) makes the output
/// definite one cycle early: the plan breaks Theorem 5.1's premise and
/// changes a CLS trace, so no per-move certificate may cover it.
inline Netlist delayed_constant() {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId out = n.add_output("out");
  const NodeId c = n.add_const(false, "c");
  const NodeId l = n.add_latch("L");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(c, l);
  n.connect(PortRef(l, 0), PinRef(x, 0));
  n.connect(PortRef(a, 0), PinRef(x, 1));
  n.connect(x, out);
  n.check_valid(true);
  return n;
}

/// A toggle latch T that never leaves X, XORed with a buffered constant
/// delayed by one latch: the output is X on every cycle. Min-area moves
/// that latch back across the buffer (argument 1) and then across the
/// constant, which only the whole-design fixpoint certifies. The second
/// move is not enabled in the original design, only after the first.
inline Netlist stuck_at_x() {
  Netlist n;
  const NodeId out = n.add_output("out");
  const NodeId c = n.add_const(false, "c");
  const NodeId b = n.add_gate(CellKind::kBuf, 1, "b");
  const NodeId l = n.add_latch("L");
  const NodeId t = n.add_latch("T");
  const NodeId j = n.add_junc(2, "J");
  const NodeId inv = n.add_gate(CellKind::kNot, 1, "inv");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(c, b);
  n.connect(b, l);
  n.connect(PortRef(l, 0), PinRef(x, 0));
  n.connect(PortRef(t, 0), PinRef(j, 0));
  n.connect(PortRef(j, 0), PinRef(inv, 0));
  n.connect(PortRef(inv, 0), PinRef(t, 0));
  n.connect(PortRef(j, 1), PinRef(x, 1));
  n.connect(x, out);
  n.check_valid(true);
  return n;
}

/// A 3,000-gate random design whose retiming graph has 4,595 vertices
/// (4,122 after the synthesis flow's cleanup): above the 4096-vertex cap of
/// the W/D matrices (tests/wd_reference.hpp), which min-area at a period
/// once built.
inline Netlist above_wd_cap_design() {
  Rng rng(7);
  RandomCircuitOptions opt;
  opt.num_inputs = 16;
  opt.num_outputs = 16;
  opt.num_gates = 3000;
  opt.num_latches = 3000 / 8;
  opt.latch_after_gate_probability = 0.25;
  return random_netlist(opt, rng);
}

/// A random legal lag: `attempts` single-vertex +-1 probes, each kept when
/// the retiming stays legal.
inline std::vector<int> random_legal_lag(const RetimeGraph& g, Rng& rng,
                                         int attempts = 40) {
  std::vector<int> lag(g.num_vertices(), 0);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::vector<int> probe = lag;
    const std::uint32_t v =
        2 + static_cast<std::uint32_t>(rng.below(g.num_vertices() - 2));
    probe[v] += rng.coin() ? 1 : -1;
    if (g.legal_retiming(probe)) lag = probe;
  }
  return lag;
}

/// The per-move certifier as an independent reference: its own scratch
/// replay of an all-enabled plan, the element's full truth table for
/// argument 1, a fresh observable_mask per move for argument 2 and the
/// whole-design proof on every remaining move.
inline std::vector<MoveCertificate> reference_certify_plan_moves(
    const Netlist& netlist, const std::vector<RetimingMove>& moves) {
  std::vector<MoveCertificate> certificates(moves.size());
  Netlist scratch = netlist;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    MoveCertificate& cert = certificates[i];
    const RetimingMove& move = moves[i];
    if (scratch.cell_function(move.element).preserves_all_x()) {
      cert.certified = true;
    } else if (!observable_mask(scratch)[move.element.value]) {
      cert.certified = true;
    } else {
      Netlist after = scratch;
      apply_move(after, move);
      cert.certified = static_cls_equivalence_proof(scratch, after).has_value();
    }
    apply_move(scratch, move);
  }
  return certificates;
}

}  // namespace rtv::testing
