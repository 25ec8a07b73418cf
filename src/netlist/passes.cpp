#include <algorithm>
#include <sstream>

#include "netlist/netlist.hpp"

namespace rtv {

std::size_t Netlist::junctionize() {
  // Snapshot the multi-fanout ports first; the junctions we insert have
  // single-sink ports, so no rescan is needed.
  std::vector<PortRef> multi;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.dead) continue;
    for (std::uint32_t p = 0; p < n.num_ports(); ++p) {
      if (n.fanout[p].size() > 1) multi.push_back(PortRef(NodeId(i), p));
    }
  }
  for (const PortRef& port : multi) {
    const std::vector<PinRef> old_sinks = sinks(port);
    const NodeId j = add_junc(static_cast<unsigned>(old_sinks.size()));
    for (const PinRef& s : old_sinks) disconnect(s);
    connect(port, PinRef(j, 0));
    for (std::uint32_t k = 0; k < old_sinks.size(); ++k) {
      connect(PortRef(j, k), old_sinks[k]);
    }
  }
  return multi.size();
}

bool Netlist::is_junction_normal() const {
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    for (const auto& sinks : n.fanout) {
      if (sinks.size() > 1) return false;
    }
  }
  return true;
}

Netlist Netlist::compacted(std::vector<NodeId>* old_to_new) const {
  Netlist out;
  std::vector<NodeId> map(nodes_.size());
  // Creation order equals slot order, so iterating slots in increasing order
  // preserves the relative order of PIs, POs and latches (and hence the
  // layout of simulation vectors).
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.dead) continue;
    NodeId nid;
    switch (n.kind) {
      case CellKind::kInput:
        nid = out.add_input(n.name);
        break;
      case CellKind::kOutput:
        nid = out.add_output(n.name);
        break;
      case CellKind::kConst0:
        nid = out.add_const(false, n.name);
        break;
      case CellKind::kConst1:
        nid = out.add_const(true, n.name);
        break;
      case CellKind::kJunc:
        nid = out.add_junc(n.num_ports(), n.name);
        break;
      case CellKind::kLatch:
        nid = out.add_latch(n.name);
        break;
      case CellKind::kTable:
        nid = out.add_table_cell(out.add_table(table(n.table)), n.name);
        break;
      default:
        nid = out.add_gate(n.kind, n.num_pins(), n.name);
        break;
    }
    map[i] = nid;
  }
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.dead) continue;
    for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
      const PortRef drv = n.fanin[pin];
      if (!drv.valid()) continue;
      RTV_CHECK_MSG(!nodes_[drv.node.value].dead,
                    "live node driven by dead node");
      out.connect(PortRef(map[drv.node.value], drv.port),
                  PinRef(map[i], pin));
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return out;
}

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnconnectedPin: return "unconnected-pin";
    case ViolationKind::kMultiDrivenPin: return "multi-driven-pin";
    case ViolationKind::kBadArity: return "bad-arity";
    case ViolationKind::kBadTable: return "bad-table";
    case ViolationKind::kBrokenCrossLink: return "broken-cross-link";
    case ViolationKind::kIndexOutOfSync: return "index-out-of-sync";
    case ViolationKind::kCombinationalCycle: return "combinational-cycle";
    case ViolationKind::kImplicitFanout: return "implicit-fanout";
  }
  return "unknown";
}

std::vector<StructuralViolation> Netlist::structural_violations(
    bool require_junction_normal) const {
  std::vector<StructuralViolation> out;
  const auto emit = [&](ViolationKind kind, NodeId node, std::string what) {
    out.push_back(StructuralViolation{kind, node, std::move(what)});
  };
  // How many ports claim each pin as a sink; a count above one is a
  // multi-driven wire regardless of which driver the fanin side records.
  // One flat slot per live pin: node i's pins start at first_pin[i].
  std::vector<std::size_t> first_pin(nodes_.size() + 1, 0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    first_pin[i + 1] =
        first_pin[i] + (nodes_[i].dead ? 0 : nodes_[i].num_pins());
  }
  std::vector<std::uint32_t> drive_count(first_pin.back(), 0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].dead) continue;
    for (const auto& port_sinks : nodes_[i].fanout) {
      for (const PinRef& s : port_sinks) {
        if (s.node.value < nodes_.size() && !nodes_[s.node.value].dead &&
            s.pin < nodes_[s.node.value].num_pins()) {
          ++drive_count[first_pin[s.node.value] + s.pin];
        }
      }
    }
  }

  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.dead) continue;
    const NodeId id(i);
    // Built only for a violation that is emitted: a sound netlist pays
    // for no message text.
    const auto where = [&n] { return " (node '" + n.name + "')"; };
    // Arity legality per kind.
    unsigned pins = 0, ports = 0;
    if (fixed_pin_count(n.kind, pins) && n.num_pins() != pins) {
      emit(ViolationKind::kBadArity, id, "wrong pin count" + where());
    }
    if (fixed_port_count(n.kind, ports) && n.num_ports() != ports) {
      emit(ViolationKind::kBadArity, id, "wrong port count" + where());
    }
    if (is_variadic_gate(n.kind) && n.num_pins() < 1) {
      emit(ViolationKind::kBadArity, id,
           "variadic gate with no pins" + where());
    }
    if (n.kind == CellKind::kJunc && n.num_ports() < 1) {
      emit(ViolationKind::kBadArity, id, "junction with no ports" + where());
    }
    if (n.kind == CellKind::kTable) {
      if (!n.table.valid() || n.table.value >= tables_.size()) {
        emit(ViolationKind::kBadTable, id, "dangling table id" + where());
      } else {
        const TruthTable& t = tables_[n.table.value];
        if (n.num_pins() != t.num_inputs() ||
            n.num_ports() != t.num_outputs()) {
          emit(ViolationKind::kBadTable, id,
               "table cell arity mismatch" + where());
        }
      }
    }
    // Connectivity and cross-link consistency.
    for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
      const PortRef drv = n.fanin[pin];
      if (!drv.valid()) {
        emit(ViolationKind::kUnconnectedPin, id,
             "unconnected input pin " + std::to_string(pin) + where());
        continue;
      }
      if (drv.node.value >= nodes_.size() || nodes_[drv.node.value].dead) {
        emit(ViolationKind::kBrokenCrossLink, id,
             "pin driven by dead/out-of-range node" + where());
        continue;
      }
      const Node& src = nodes_[drv.node.value];
      if (drv.port >= src.num_ports()) {
        emit(ViolationKind::kBrokenCrossLink, id,
             "driver port out of range" + where());
        continue;
      }
      const auto& fo = src.fanout[drv.port];
      if (std::find(fo.begin(), fo.end(), PinRef(id, pin)) == fo.end()) {
        emit(ViolationKind::kBrokenCrossLink, id,
             "fanin/fanout cross-link broken" + where());
      }
      const std::uint32_t drivers = drive_count[first_pin[i] + pin];
      if (drivers > 1) {
        emit(ViolationKind::kMultiDrivenPin, id,
             "input pin " + std::to_string(pin) + " driven by " +
                 std::to_string(drivers) + " ports" + where());
      }
    }
    for (std::uint32_t port = 0; port < n.num_ports(); ++port) {
      for (const PinRef& s : n.fanout[port]) {
        if (s.node.value >= nodes_.size() || nodes_[s.node.value].dead) {
          emit(ViolationKind::kBrokenCrossLink, id,
               "fanout to dead/out-of-range node" + where());
          continue;
        }
        const Node& dst = nodes_[s.node.value];
        if (s.pin >= dst.num_pins()) {
          emit(ViolationKind::kBrokenCrossLink, id,
               "fanout pin out of range" + where());
          continue;
        }
        if (dst.fanin[s.pin] != PortRef(id, port)) {
          emit(ViolationKind::kBrokenCrossLink, id,
               "fanout/fanin cross-link broken" + where());
        }
      }
      if (require_junction_normal && n.fanout[port].size() > 1) {
        emit(ViolationKind::kImplicitFanout, id,
             "implicit multi-fanout port in junction-normal mode" + where());
      }
    }
  }
  // Index vectors consistent with node kinds.
  auto check_index = [&](const std::vector<NodeId>& index, CellKind kind,
                         const char* label) {
    std::size_t live_count = 0;
    for (const Node& n : nodes_) {
      if (!n.dead && n.kind == kind) ++live_count;
    }
    if (index.size() != live_count) {
      emit(ViolationKind::kIndexOutOfSync, NodeId(),
           std::string(label) + " index out of sync");
    }
    for (NodeId id : index) {
      if (!id.valid() || id.value >= nodes_.size() || nodes_[id.value].dead ||
          nodes_[id.value].kind != kind) {
        emit(ViolationKind::kIndexOutOfSync, NodeId(),
             std::string(label) + " index entry invalid");
      }
    }
  };
  check_index(inputs_, CellKind::kInput, "primary input");
  check_index(outputs_, CellKind::kOutput, "primary output");
  check_index(latches_, CellKind::kLatch, "latch");

  // Cycle detection walks fanout links; it is only meaningful (and only
  // memory-safe) once those links are structurally sound, so skip it when
  // any cross-link defect was found.
  const bool links_sound =
      std::none_of(out.begin(), out.end(), [](const StructuralViolation& v) {
        return v.kind == ViolationKind::kBrokenCrossLink;
      });
  if (links_sound) {
    const NodeId witness = combinational_cycle_witness();
    if (witness.valid()) {
      emit(ViolationKind::kCombinationalCycle, witness,
           "combinational cycle (a cycle without a latch) through node '" +
               nodes_[witness.value].name + "'");
    }
  }
  return out;
}

void Netlist::check_valid(bool require_junction_normal) const {
  const std::vector<StructuralViolation> violations =
      structural_violations(require_junction_normal);
  if (!violations.empty()) {
    throw InvalidArgument("invalid netlist: " + violations.front().message);
  }
}

bool Netlist::every_cycle_has_latch() const {
  return !combinational_cycle_witness().valid();
}

NodeId Netlist::combinational_cycle_witness() const {
  // Any cycle that crosses a latch is broken when we only follow edges whose
  // head is a combinational node, because latch fanin edges are skipped.
  // So: a combinational cycle exists iff DFS over comb-to-comb edges finds a
  // back edge; the node the back edge lands on witnesses the cycle.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(nodes_.size(), Color::kWhite);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // (node, port idx cursor)
  for (std::uint32_t start = 0; start < nodes_.size(); ++start) {
    if (nodes_[start].dead || !is_combinational(nodes_[start].kind)) continue;
    if (color[start] != Color::kWhite) continue;
    stack.clear();
    stack.emplace_back(start, 0);
    color[start] = Color::kGray;
    while (!stack.empty()) {
      auto& [u, cursor] = stack.back();
      // Flatten (port, sink) pairs into a single cursor over all sinks.
      const Node& un = nodes_[u];
      std::uint32_t seen = 0;
      PinRef next;
      bool found = false;
      for (const auto& port_sinks : un.fanout) {
        for (const PinRef& s : port_sinks) {
          if (seen++ == cursor) {
            next = s;
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) {
        color[u] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      ++cursor;
      const std::uint32_t v = next.node.value;
      if (!is_combinational(nodes_[v].kind)) continue;  // latch/PO breaks path
      if (color[v] == Color::kGray) return NodeId(v);   // combinational cycle
      if (color[v] == Color::kWhite) {
        color[v] = Color::kGray;
        stack.emplace_back(v, 0);
      }
    }
  }
  return NodeId();
}

std::size_t Netlist::sweep_unobservable() {
  // Backward closure from primary outputs: a node is observable iff some
  // output port of it drives an observable node's pin.
  std::vector<bool> observable(nodes_.size(), false);
  std::vector<std::uint32_t> stack;
  for (const NodeId po : outputs_) {
    observable[po.value] = true;
    stack.push_back(po.value);
  }
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (const PortRef& drv : nodes_[v].fanin) {
      if (!drv.valid()) continue;
      if (!observable[drv.node.value]) {
        observable[drv.node.value] = true;
        stack.push_back(drv.node.value);
      }
    }
  }
  std::size_t removed = 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.dead || observable[i]) continue;
    if (n.kind == CellKind::kInput) continue;  // interface stays
    // Detach from any observable drivers, then tombstone.
    for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
      if (n.fanin[pin].valid()) disconnect(PinRef(NodeId(i), pin));
    }
    // Unobservable nodes never drive observable ones, so remaining fanout
    // entries point at other dead-to-be nodes; clear the cross-links.
    for (auto& sinks : n.fanout) {
      for (const PinRef& s : std::vector<PinRef>(sinks)) {
        disconnect(s);
      }
    }
    n.dead = true;
    ++removed;
    if (n.kind == CellKind::kLatch) {
      const auto it = std::find(latches_.begin(), latches_.end(), NodeId(i));
      RTV_CHECK(it != latches_.end());
      latches_.erase(it);
    }
  }
  return removed;
}

std::size_t Netlist::propagate_constants() {
  // Local rewrite helpers. replace_with_port reroutes all sinks of a
  // single-output node to `src` and tombstones the node; replace_with_const
  // routes them to a fresh constant cell.
  const auto detach_fanins = [&](NodeId id) {
    Node& n = nodes_[id.value];
    for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
      if (n.fanin[pin].valid()) disconnect(PinRef(id, pin));
    }
  };
  const auto replace_with_port = [&](NodeId id, PortRef src) {
    Node& n = nodes_[id.value];
    RTV_CHECK(n.num_ports() == 1);
    const std::vector<PinRef> sinks = n.fanout[0];
    for (const PinRef& s : sinks) disconnect(s);
    detach_fanins(id);
    for (const PinRef& s : sinks) connect(src, s);
    n.dead = true;
  };
  const auto replace_with_const = [&](NodeId id, bool value) {
    replace_with_port(id, PortRef(add_const(value), 0));
  };
  const auto const_value = [&](PortRef p, bool& value) {
    const CellKind k = nodes_[p.node.value].kind;
    if (k == CellKind::kConst0) {
      value = false;
      return true;
    }
    if (k == CellKind::kConst1) {
      value = true;
      return true;
    }
    return false;
  };

  std::size_t simplified = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      const NodeId id(i);
      const Node& n = nodes_[i];
      if (n.dead || !is_combinational(n.kind) || n.num_ports() != 1) continue;
      if (n.kind == CellKind::kConst0 || n.kind == CellKind::kConst1) continue;
      if (n.fanout[0].empty()) continue;  // dead fanout: sweep's job
      bool all_connected = true;
      for (const PortRef& d : n.fanin) all_connected &= d.valid();
      if (!all_connected) continue;

      // Gather constant knowledge about the pins.
      unsigned const_pins = 0;
      bool saw0 = false, saw1 = false;
      std::uint64_t minterm = 0;
      PortRef non_const_driver;
      for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
        bool v = false;
        if (const_value(n.fanin[pin], v)) {
          ++const_pins;
          (v ? saw1 : saw0) = true;
          if (v) minterm |= (1ULL << pin);
        } else {
          non_const_driver = n.fanin[pin];
        }
      }

      if (n.kind == CellKind::kBuf) {
        replace_with_port(id, n.fanin[0]);
        ++simplified;
        changed = true;
        continue;
      }
      if (const_pins == n.num_pins()) {
        // Fully constant cell: evaluate.
        replace_with_const(id, cell_function(id).eval_bit(minterm, 0));
        ++simplified;
        changed = true;
        continue;
      }
      // Dominant values and neutral-element forwarding.
      const unsigned live_pins = n.num_pins() - const_pins;
      switch (n.kind) {
        case CellKind::kAnd:
        case CellKind::kNand:
          if (saw0) {
            replace_with_const(id, n.kind == CellKind::kNand);
            ++simplified;
            changed = true;
          } else if (saw1 && live_pins == 1 && n.kind == CellKind::kAnd) {
            replace_with_port(id, non_const_driver);
            ++simplified;
            changed = true;
          }
          break;
        case CellKind::kOr:
        case CellKind::kNor:
          if (saw1) {
            replace_with_const(id, n.kind == CellKind::kOr);
            ++simplified;
            changed = true;
          } else if (saw0 && live_pins == 1 && n.kind == CellKind::kOr) {
            replace_with_port(id, non_const_driver);
            ++simplified;
            changed = true;
          }
          break;
        case CellKind::kMux: {
          bool sel = false;
          if (const_value(n.fanin[0], sel)) {
            replace_with_port(id, n.fanin[sel ? 2 : 1]);
            ++simplified;
            changed = true;
          }
          break;
        }
        default:
          break;  // XOR/XNOR/NOT/tables: only the all-const case applies
      }
    }
  }
  junctionize();
  return simplified;
}

std::size_t Netlist::trim_dangling() {
  std::size_t touched = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      const NodeId id(i);
      Node& n = nodes_[i];
      if (n.dead || n.kind == CellKind::kInput || n.kind == CellKind::kOutput) {
        continue;
      }
      std::uint32_t live_ports = 0;
      for (const auto& sinks : n.fanout) live_ports += !sinks.empty();
      if (live_ports == n.num_ports()) continue;

      if (live_ports == 0) {
        // Fully dangling: drop the node.
        for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
          if (n.fanin[pin].valid()) disconnect(PinRef(id, pin));
        }
        n.dead = true;
        if (n.kind == CellKind::kLatch) {
          const auto it = std::find(latches_.begin(), latches_.end(), id);
          RTV_CHECK(it != latches_.end());
          latches_.erase(it);
        }
        ++touched;
        changed = true;
        continue;
      }
      if (n.kind != CellKind::kJunc) continue;  // partial: only juncs shrink

      // Shrink the junction to its used branches.
      const PortRef drv = n.fanin[0];
      std::vector<PinRef> used;
      for (const auto& sinks : n.fanout) {
        for (const PinRef& s : sinks) used.push_back(s);
      }
      for (const PinRef& s : std::vector<PinRef>(used)) disconnect(s);
      disconnect(PinRef(id, 0));
      n.dead = true;
      if (used.size() == 1) {
        connect(drv, used[0]);
      } else {
        const NodeId smaller =
            add_junc(static_cast<unsigned>(used.size()), nodes_[i].name);
        connect(drv, PinRef(smaller, 0));
        for (std::uint32_t k = 0; k < used.size(); ++k) {
          connect(PortRef(smaller, k), used[k]);
        }
      }
      ++touched;
      changed = true;
    }
  }
  return touched;
}

bool Netlist::all_cells_preserve_all_x() const {
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    switch (n.kind) {
      case CellKind::kConst0:
      case CellKind::kConst1:
        return false;
      case CellKind::kTable:
        if (!tables_[n.table.value].preserves_all_x()) return false;
        break;
      default:
        break;  // all primitive gates, junctions and latches preserve all-X
    }
  }
  return true;
}

}  // namespace rtv
