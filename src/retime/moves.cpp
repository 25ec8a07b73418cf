#include "retime/moves.hpp"

#include <sstream>

namespace rtv {

const char* to_string(MoveDirection direction) {
  return direction == MoveDirection::kForward ? "forward" : "backward";
}

MoveDirection move_direction_from_string(const std::string& text) {
  if (text == "forward") return MoveDirection::kForward;
  if (text == "backward") return MoveDirection::kBackward;
  throw ParseError("unknown move direction '" + text +
                   "' (expected \"forward\" or \"backward\")");
}

MoveClass classify_move(const Netlist& netlist, const RetimingMove& move) {
  return MoveClass{move.direction, netlist.is_justifiable(move.element)};
}

namespace {

/// A latch is movable across an element only when the latch's own port
/// feeds exactly one pin (true in junction-normal form).
bool latch_on_pin(const Netlist& netlist, NodeId element, std::uint32_t pin,
                  NodeId* latch_out) {
  const PortRef drv = netlist.driver(PinRef(element, pin));
  if (!drv.valid() || netlist.kind(drv.node) != CellKind::kLatch) return false;
  if (netlist.sinks(drv).size() != 1) return false;
  if (latch_out != nullptr) *latch_out = drv.node;
  return true;
}

bool latch_on_port(const Netlist& netlist, NodeId element, std::uint32_t port,
                   NodeId* latch_out) {
  const auto& sinks = netlist.sinks(PortRef(element, port));
  if (sinks.size() != 1) return false;
  const NodeId sink = sinks[0].node;
  if (netlist.kind(sink) != CellKind::kLatch) return false;
  if (latch_out != nullptr) *latch_out = sink;
  return true;
}

}  // namespace

MoveReason move_reason(const Netlist& netlist, const RetimingMove& move) {
  const NodeId e = move.element;
  if (!e.valid() || e.value >= netlist.num_slots() || netlist.is_dead(e)) {
    return {MoveReason::kDeadElement};
  }
  if (!is_combinational(netlist.kind(e))) {
    return {MoveReason::kNotCombinational};
  }
  // The element's ports must each drive exactly one pin for a move to have
  // a well-defined effect (the paper's junction-normal form).
  for (std::uint32_t port = 0; port < netlist.num_ports(e); ++port) {
    if (netlist.sinks(PortRef(e, port)).size() != 1) {
      return {MoveReason::kPortFanout, port};
    }
  }
  if (move.direction == MoveDirection::kForward) {
    for (std::uint32_t pin = 0; pin < netlist.num_pins(e); ++pin) {
      if (!latch_on_pin(netlist, e, pin, nullptr)) {
        return {MoveReason::kNoLatchOnPin, pin};
      }
    }
  } else {
    // Every combinational cell has at least one port (add_junc, add_gate,
    // add_const and truth tables all guarantee it), so no backward move
    // conjures latches from nothing.
    for (std::uint32_t port = 0; port < netlist.num_ports(e); ++port) {
      if (!latch_on_port(netlist, e, port, nullptr)) {
        return {MoveReason::kNoLatchOnPort, port};
      }
    }
  }
  return {};
}

MoveClass apply_move(Netlist& netlist, const RetimingMove& move) {
  RTV_REQUIRE(can_apply(netlist, move), "retiming move is not enabled");
  return detail::apply_enabled_move(netlist, move);
}

MoveClass detail::apply_enabled_move(Netlist& netlist,
                                     const RetimingMove& move) {
  const NodeId e = move.element;
  const MoveClass cls = classify_move(netlist, move);
  if (move.direction == MoveDirection::kForward) {
    // Remove one latch from each input wire...
    for (std::uint32_t pin = 0; pin < netlist.num_pins(e); ++pin) {
      NodeId latch;
      RTV_CHECK(latch_on_pin(netlist, e, pin, &latch));
      netlist.bypass_and_remove(latch);
    }
    // ...and place one latch on each output wire.
    for (std::uint32_t port = 0; port < netlist.num_ports(e); ++port) {
      const PortRef p(e, port);
      netlist.insert_on_wire(p, netlist.sole_sink(p), CellKind::kLatch);
    }
  } else {
    for (std::uint32_t port = 0; port < netlist.num_ports(e); ++port) {
      NodeId latch;
      RTV_CHECK(latch_on_port(netlist, e, port, &latch));
      netlist.bypass_and_remove(latch);
    }
    for (std::uint32_t pin = 0; pin < netlist.num_pins(e); ++pin) {
      const PinRef p(e, pin);
      netlist.insert_on_wire(netlist.driver(p), p, CellKind::kLatch);
    }
  }
  return cls;
}

std::vector<RetimingMove> enabled_moves(const Netlist& netlist) {
  std::vector<RetimingMove> moves;
  for (std::uint32_t i = 0; i < netlist.num_slots(); ++i) {
    const NodeId id(i);
    if (netlist.is_dead(id) || !is_combinational(netlist.kind(id))) continue;
    for (const MoveDirection dir :
         {MoveDirection::kForward, MoveDirection::kBackward}) {
      const RetimingMove m{id, dir};
      if (can_apply(netlist, m)) moves.push_back(m);
    }
  }
  return moves;
}

std::string MoveSequenceStats::summary() const {
  std::ostringstream os;
  os << total_moves << " moves (" << forward_moves << " fwd, "
     << backward_moves << " bwd), " << forward_across_non_justifiable
     << " fwd across non-justifiable, k = "
     << max_forward_per_non_justifiable;
  return os.str();
}

std::string MoveSequenceStats::certificate() const {
  if (preserves_safe_replacement()) return "safe replacement (C ⊑ D, Cor 4.4)";
  return "C^" + std::to_string(max_forward_per_non_justifiable) +
         " ⊑ D (Thm 4.5)";
}

}  // namespace rtv
