#include "gen/shift.hpp"

#include <string>

#include "util/error.hpp"

namespace rtv {

Netlist shift_register(unsigned length) {
  RTV_REQUIRE(length >= 1, "shift register needs at least one latch");
  Netlist n;
  const NodeId in = n.add_input("si");
  const NodeId out = n.add_output("so");
  PortRef prev(in, 0);
  for (unsigned i = 0; i < length; ++i) {
    const NodeId latch = n.add_latch(indexed_name("r", i));
    n.connect(prev, PinRef(latch, 0));
    prev = PortRef(latch, 0);
  }
  n.connect(prev, PinRef(out, 0));
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

Netlist lfsr(unsigned length, const std::vector<unsigned>& taps) {
  RTV_REQUIRE(length >= 1, "LFSR needs at least one latch");
  RTV_REQUIRE(!taps.empty(), "LFSR needs at least one tap");
  for (const unsigned t : taps) {
    RTV_REQUIRE(t < length, "tap index out of range");
  }
  Netlist n;
  const NodeId in = n.add_input("si");
  const NodeId out = n.add_output("so");
  const NodeId fb =
      n.add_gate(CellKind::kXor, static_cast<unsigned>(taps.size()) + 1, "fb");
  n.connect(PortRef(in, 0), PinRef(fb, 0));

  std::vector<NodeId> latches;
  PortRef prev(fb, 0);
  for (unsigned i = 0; i < length; ++i) {
    const NodeId latch = n.add_latch(indexed_name("r", i));
    n.connect(prev, PinRef(latch, 0));
    latches.push_back(latch);
    prev = PortRef(latch, 0);
  }
  // Tap connections (implicit fanout on tapped latches; junctionized below).
  for (std::uint32_t i = 0; i < taps.size(); ++i) {
    n.connect(PortRef(latches[taps[i]], 0), PinRef(fb, i + 1));
  }
  n.connect(PortRef(latches.back(), 0), PinRef(out, 0));
  n.junctionize();
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

Netlist twisted_ring(unsigned length) {
  RTV_REQUIRE(length >= 1, "twisted ring needs at least one latch");
  Netlist n;
  const NodeId in = n.add_input("si");
  const NodeId out = n.add_output("so");
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
  const NodeId fb = n.add_gate(CellKind::kXor, 2, "fb");
  n.connect(PortRef(in, 0), PinRef(fb, 0));
  n.connect(PortRef(inv, 0), PinRef(fb, 1));

  PortRef prev(fb, 0);
  NodeId last;
  for (unsigned i = 0; i < length; ++i) {
    last = n.add_latch(indexed_name("r", i));
    n.connect(prev, PinRef(last, 0));
    prev = PortRef(last, 0);
  }
  n.connect(PortRef(last, 0), PinRef(inv, 0));
  n.connect(PortRef(last, 0), PinRef(out, 0));
  n.junctionize();
  n.check_valid(/*require_junction_normal=*/true);
  return n;
}

}  // namespace rtv
