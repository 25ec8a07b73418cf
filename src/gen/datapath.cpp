#include "gen/datapath.hpp"

#include <string>

#include "util/error.hpp"

namespace rtv {

PipelineBuilder::Signal PipelineBuilder::input(const std::string& name) {
  return Signal{PortRef(n_->add_input(name), 0), 0};
}

PipelineBuilder::Signal PipelineBuilder::constant(bool value) {
  return Signal{PortRef(n_->add_const(value), 0), 0};
}

PipelineBuilder::Signal PipelineBuilder::pad_to(Signal s, unsigned depth) {
  RTV_REQUIRE(depth >= s.depth, "pad_to cannot reduce depth");
  return delay(s, depth - s.depth);
}

PipelineBuilder::Signal PipelineBuilder::delay(Signal s, unsigned stages) {
  for (unsigned i = 0; i < stages; ++i) {
    const NodeId latch = n_->add_latch();
    n_->connect(s.port, PinRef(latch, 0));
    s.port = PortRef(latch, 0);
    ++s.depth;
  }
  max_depth_ = std::max(max_depth_, s.depth);
  return s;
}

PipelineBuilder::Signal PipelineBuilder::gate(
    CellKind kind, const std::vector<Signal>& operands) {
  RTV_REQUIRE(!operands.empty(), "gate needs operands");
  unsigned depth = 0;
  for (const Signal& s : operands) depth = std::max(depth, s.depth);
  const NodeId g =
      n_->add_gate(kind, static_cast<unsigned>(operands.size()));
  for (std::uint32_t i = 0; i < operands.size(); ++i) {
    const Signal padded = pad_to(operands[i], depth);
    n_->connect(padded.port, PinRef(g, i));
  }
  max_depth_ = std::max(max_depth_, depth);
  return Signal{PortRef(g, 0), depth};
}

void PipelineBuilder::output(const std::string& name, Signal s) {
  const NodeId po = n_->add_output(name);
  n_->connect(s.port, PinRef(po, 0));
}

std::pair<PipelineBuilder::Signal, PipelineBuilder::Signal>
PipelineBuilder::full_add(Signal a, Signal b, Signal c) {
  const Signal sum = gate(CellKind::kXor, {a, b, c});
  const Signal ab = gate(CellKind::kAnd, {a, b});
  const Signal ac = gate(CellKind::kAnd, {a, c});
  const Signal bc = gate(CellKind::kAnd, {b, c});
  const Signal carry = gate(CellKind::kOr, {ab, ac, bc});
  return {sum, carry};
}

Netlist pipelined_adder(unsigned bits, unsigned stages) {
  RTV_REQUIRE(bits >= 1 && stages >= 1, "bad adder shape");
  RTV_REQUIRE(stages <= bits, "more stages than bits");
  Netlist n;
  PipelineBuilder pb(n);
  std::vector<PipelineBuilder::Signal> a(bits), b(bits), sum(bits + 1);
  for (unsigned i = 0; i < bits; ++i) a[i] = pb.input(indexed_name("a", i));
  for (unsigned i = 0; i < bits; ++i) b[i] = pb.input(indexed_name("b", i));

  const unsigned bits_per_stage = (bits + stages - 1) / stages;
  PipelineBuilder::Signal carry = pb.constant(false);
  for (unsigned i = 0; i < bits; ++i) {
    auto [s, c] = pb.full_add(a[i], b[i], carry);
    sum[i] = s;
    carry = c;
    // Register boundary at the end of each stage (except after the last
    // bit, where outputs get their balancing pads below).
    if ((i + 1) % bits_per_stage == 0 && i + 1 < bits) {
      carry = pb.delay(carry, 1);
    }
  }
  sum[bits] = carry;

  const unsigned final_depth = pb.max_depth();
  for (unsigned i = 0; i <= bits; ++i) {
    pb.output(indexed_name("s", i), pb.pad_to(sum[i], final_depth));
  }
  n.junctionize();
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

Netlist pipelined_multiplier(unsigned bits, unsigned rows_per_stage) {
  RTV_REQUIRE(bits >= 2, "multiplier needs at least 2 bits");
  RTV_REQUIRE(rows_per_stage >= 1, "rows_per_stage must be >= 1");
  Netlist n;
  PipelineBuilder pb(n);
  using Signal = PipelineBuilder::Signal;
  std::vector<Signal> a(bits), b(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = pb.input(indexed_name("a", i));
  for (unsigned i = 0; i < bits; ++i) b[i] = pb.input(indexed_name("b", i));

  // Per-column operand lists (Wallace-style): dump each row's partial
  // products into their weight columns, inserting a register boundary
  // after every rows_per_stage rows (operand skew for later rows is
  // handled automatically by the depth-tracking builder).
  std::vector<std::vector<Signal>> cols(2 * bits + 2);
  for (unsigned row = 0; row < bits; ++row) {
    for (unsigned col = 0; col < bits; ++col) {
      cols[row + col].push_back(pb.gate(CellKind::kAnd, {a[col], b[row]}));
    }
    if ((row + 1) % rows_per_stage == 0 && row + 1 < bits) {
      for (auto& column : cols) {
        for (Signal& s : column) s = pb.delay(s, 1);
      }
    }
  }
  // Reduce every column to at most two operands with full adders; carries
  // feed the next column (processed afterwards, so ascending order works).
  for (unsigned i = 0; i + 1 < cols.size(); ++i) {
    while (cols[i].size() > 2) {
      const Signal x = cols[i].back();
      cols[i].pop_back();
      const Signal y = cols[i].back();
      cols[i].pop_back();
      const Signal z = cols[i].back();
      cols[i].pop_back();
      auto [s, c] = pb.full_add(x, y, z);
      cols[i].push_back(s);
      cols[i + 1].push_back(c);
    }
  }
  // Final carry-propagate adder across the reduced columns.
  Signal carry = pb.constant(false);
  std::vector<Signal> sums(cols.size());
  for (unsigned i = 0; i < cols.size(); ++i) {
    const Signal x = cols[i].empty() ? pb.constant(false) : cols[i][0];
    const Signal y = cols[i].size() < 2 ? pb.constant(false) : cols[i][1];
    auto [s, c] = pb.full_add(x, y, carry);
    sums[i] = s;
    carry = c;
  }
  const unsigned final_depth = pb.max_depth();
  for (unsigned i = 0; i < 2 * bits; ++i) {
    pb.output(indexed_name("p", i), pb.pad_to(sums[i], final_depth));
  }
  // Everything above bit 2*bits-1 is logically 0 but must not dangle.
  Signal overflow = carry;
  for (unsigned i = 2 * bits; i < cols.size(); ++i) {
    overflow = pb.gate(CellKind::kOr, {overflow, sums[i]});
  }
  pb.output("cout", pb.pad_to(overflow, final_depth));
  n.junctionize();
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

Netlist controller_datapath(unsigned width) {
  RTV_REQUIRE(width >= 1, "datapath width must be >= 1");
  Netlist n;
  const NodeId rst = n.add_input("rst");
  std::vector<NodeId> data(width);
  for (unsigned i = 0; i < width; ++i) {
    data[i] = n.add_input(indexed_name("d", i));
  }
  const NodeId valid_po = n.add_output("valid");
  const NodeId msb_po = n.add_output("acc_msb");

  // Controller: a single phase latch with synchronous reset modeled by
  // gates (latch <- NOT(rst) AND 1 after reset; here: phase' = NOT(rst)).
  // While rst is high the controller emits clr = 1, which clears the
  // accumulator on the next cycle — so the datapath needs no reset pins.
  const NodeId phase = n.add_latch("phase");
  const NodeId nrst = n.add_gate(CellKind::kNot, 0, "nrst");
  n.connect(PortRef(rst, 0), PinRef(nrst, 0));
  n.connect(PortRef(nrst, 0), PinRef(phase, 0));
  // clr = rst (clear while reset asserted); valid = phase.
  n.connect(PortRef(phase, 0), PinRef(valid_po, 0));

  // Datapath: acc' = clr ? 0 : acc XOR data (a toggling accumulator keeps
  // the gate count linear while remaining sequentially interesting).
  NodeId prev_or;  // OR over accumulated bits feeds the MSB output mix
  for (unsigned i = 0; i < width; ++i) {
    const NodeId acc = n.add_latch(indexed_name("acc", i));
    const NodeId x = n.add_gate(CellKind::kXor, 2, indexed_name("mix", i));
    const NodeId gate_clr =
        n.add_gate(CellKind::kAnd, 2, indexed_name("clr", i));
    const NodeId ninv =
        n.add_gate(CellKind::kNot, 0, indexed_name("nclr", i));
    n.connect(PortRef(acc, 0), PinRef(x, 0));
    n.connect(PortRef(data[i], 0), PinRef(x, 1));
    n.connect(PortRef(rst, 0), PinRef(ninv, 0));
    n.connect(PortRef(ninv, 0), PinRef(gate_clr, 0));
    n.connect(PortRef(x, 0), PinRef(gate_clr, 1));
    n.connect(PortRef(gate_clr, 0), PinRef(acc, 0));
    if (i == 0) {
      prev_or = acc;
    } else {
      const NodeId o = n.add_gate(CellKind::kOr, 2, indexed_name("red", i));
      n.connect(PortRef(prev_or, 0), PinRef(o, 0));
      n.connect(PortRef(acc, 0), PinRef(o, 1));
      prev_or = o;
    }
  }
  n.connect(PortRef(prev_or, 0), PinRef(msb_po, 0));
  n.junctionize();
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

}  // namespace rtv
