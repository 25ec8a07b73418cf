#include "gen/random_circuits.hpp"

#include <string>

#include "util/error.hpp"

namespace rtv {

namespace {

CellKind pick_gate_kind(unsigned fanin, Rng& rng) {
  if (fanin == 1) {
    return rng.coin() ? CellKind::kNot : CellKind::kBuf;
  }
  static constexpr CellKind kKinds[] = {CellKind::kAnd,  CellKind::kOr,
                                        CellKind::kNand, CellKind::kNor,
                                        CellKind::kXor,  CellKind::kXnor};
  return kKinds[rng.index(std::size(kKinds))];
}

}  // namespace

Netlist random_netlist(const RandomCircuitOptions& options, Rng& rng) {
  RTV_REQUIRE(options.num_inputs >= 1, "need at least one primary input");
  RTV_REQUIRE(options.num_gates >= 1, "need at least one gate");
  RTV_REQUIRE(options.max_fanin >= 1, "max_fanin must be >= 1");

  Netlist n;
  // Ports whose values are available as gate operands (everything created
  // so far), and the subset not yet consumed by any pin.
  std::vector<PortRef> pool;
  const auto offer = [&](NodeId id) {
    for (std::uint32_t p = 0; p < n.num_ports(id); ++p) {
      pool.push_back(PortRef(id, p));
    }
  };

  for (unsigned i = 0; i < options.num_inputs; ++i) {
    offer(n.add_input(indexed_name("pi", i)));
  }
  // Latches first: their outputs join the pool so gates can depend on
  // state; their data inputs are wired at the end (any port is legal — a
  // latch breaks combinational cycles by definition).
  std::vector<NodeId> latches;
  for (unsigned i = 0; i < options.num_latches; ++i) {
    const NodeId latch = n.add_latch(indexed_name("l", i));
    latches.push_back(latch);
    offer(latch);
  }

  for (unsigned g = 0; g < options.num_gates; ++g) {
    NodeId id;
    if (rng.chance(options.table_probability)) {
      const unsigned ins = 2 + static_cast<unsigned>(rng.below(2));   // 2..3
      const unsigned outs = 1 + static_cast<unsigned>(rng.below(2));  // 1..2
      const TableId t = n.add_table(TruthTable::random(ins, outs, rng));
      id = n.add_table_cell(t, indexed_name("t", g));
    } else {
      const unsigned fanin =
          1 + static_cast<unsigned>(rng.below(options.max_fanin));
      id = n.add_gate(pick_gate_kind(fanin, rng), fanin,
                      indexed_name("g", g));
    }
    for (std::uint32_t pin = 0; pin < n.num_pins(id); ++pin) {
      n.connect(pool[rng.index(pool.size())], PinRef(id, pin));
    }
    if (rng.chance(options.latch_after_gate_probability)) {
      // Latch bank directly on this cell's outputs: the latch output joins
      // the pool instead of the raw port, seeding registers mid-cone.
      for (std::uint32_t p = 0; p < n.num_ports(id); ++p) {
        const NodeId latch = n.add_latch();
        latches.push_back(latch);
        n.connect(PortRef(id, p), PinRef(latch, 0));
        pool.push_back(PortRef(latch, 0));
      }
    } else {
      offer(id);
    }
  }

  // Wire the leading latches' data inputs from anywhere in the pool.
  for (unsigned i = 0; i < options.num_latches; ++i) {
    n.connect(pool[rng.index(pool.size())], PinRef(latches[i], 0));
  }

  // Primary outputs sample the pool.
  for (unsigned i = 0; i < options.num_outputs; ++i) {
    const NodeId po = n.add_output(indexed_name("po", i));
    n.connect(pool[rng.index(pool.size())], PinRef(po, 0));
  }

  // Cap every still-dangling port with an extra PO so the netlist is fully
  // connected (a requirement of the retiming move engine).
  for (const PortRef& port : pool) {
    if (n.sinks(port).empty()) {
      const NodeId po = n.add_output("cap_" + std::to_string(port.node.value) +
                                     "_" + std::to_string(port.port));
      n.connect(port, PinRef(po, 0));
    }
  }

  n.junctionize();
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

}  // namespace rtv
