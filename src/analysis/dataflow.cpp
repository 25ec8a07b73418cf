#include "analysis/dataflow.hpp"

#include <algorithm>
#include <deque>

#include "netlist/cell.hpp"
#include "ternary/truth_table.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {

constexpr TritSet kSetX = trit_set_of(Trit::kX);

/// Image of a set under a unary ternary function.
TritSet lift1(Trit (*op)(Trit), TritSet a) {
  TritSet r = kTritSetEmpty;
  for (unsigned i = 0; i < 3; ++i) {
    if (a & (1u << i)) r |= trit_set_of(op(static_cast<Trit>(i)));
  }
  return r;
}

/// Image of a pair of sets under a binary ternary function. At most nine
/// concrete evaluations — the exact lift, not an approximation.
TritSet lift2(Trit (*op)(Trit, Trit), TritSet a, TritSet b) {
  TritSet r = kTritSetEmpty;
  for (unsigned i = 0; i < 3; ++i) {
    if (!(a & (1u << i))) continue;
    for (unsigned j = 0; j < 3; ++j) {
      if (!(b & (1u << j))) continue;
      r |= trit_set_of(op(static_cast<Trit>(i), static_cast<Trit>(j)));
    }
  }
  return r;
}

/// The fixpoint engine state shared by the worklist loop and the per-node
/// transfer functions.
struct Engine {
  const Netlist& netlist;
  const DataflowOptions& options;
  PortMap ports;
  std::vector<TritSet> sets;
  std::vector<bool> table_fell_back;
  DataflowStats stats;

  Engine(const Netlist& n, const DataflowOptions& opts)
      : netlist(n), options(opts), ports(n),
        sets(ports.size(), kTritSetEmpty),
        table_fell_back(n.num_slots(), false) {
    stats.num_ports = ports.size();
  }

  /// The set observed at an input pin: its driver's port set, or ⊤ when the
  /// pin is unconnected or points outside the netlist (broken structure is
  /// tolerated by reading it as "anything").
  TritSet pin_set(PinRef pin) const {
    const Node& node = netlist.node(pin.node);
    if (pin.pin >= node.fanin.size()) return kTritSetTop;
    const PortRef drv = node.fanin[pin.pin];
    if (!drv.valid() || drv.node.value >= netlist.num_slots() ||
        netlist.is_dead(drv.node) ||
        drv.port >= netlist.num_ports(drv.node)) {
      return kTritSetTop;
    }
    return sets[ports.index(drv)];
  }

  /// Writes the freshly computed set of one output port. Transfer functions
  /// are monotone and inputs only grow, so plain assignment equals union
  /// with the old value; returns whether the port grew.
  bool store(PortRef port, TritSet value) {
    TritSet& slot = sets[ports.index(port)];
    if (slot == value) return false;
    slot = value;
    ++stats.updates;
    return true;
  }

  /// Variadic gate family: the exact lift of the ClsSimulator fold
  /// (and3 from 1 / or3 from 0 / xor3 from 0, optionally negated).
  TritSet fold_gate(NodeId id, Trit (*op)(Trit, Trit), Trit init,
                    bool invert) {
    TritSet acc = trit_set_of(init);
    const unsigned pins = netlist.num_pins(id);
    for (unsigned pin = 0; pin < pins; ++pin) {
      acc = lift2(op, acc, pin_set(PinRef(id, pin)));
      if (acc == kTritSetEmpty) break;  // some driver still ⊥
    }
    return invert ? lift1(not3, acc) : acc;
  }

  /// Exact lift of mux3 over the (select, a, b) triple: at most 27 concrete
  /// evaluations.
  TritSet mux_set(NodeId id) {
    const TritSet s = pin_set(PinRef(id, 0));
    const TritSet a = pin_set(PinRef(id, 1));
    const TritSet b = pin_set(PinRef(id, 2));
    TritSet r = kTritSetEmpty;
    for (unsigned i = 0; i < 3; ++i) {
      if (!(s & (1u << i))) continue;
      for (unsigned j = 0; j < 3; ++j) {
        if (!(a & (1u << j))) continue;
        for (unsigned k = 0; k < 3; ++k) {
          if (!(b & (1u << k))) continue;
          r |= trit_set_of(mux3(static_cast<Trit>(i), static_cast<Trit>(j),
                                static_cast<Trit>(k)));
        }
      }
    }
    return r;
  }

  /// Table cells: enumerate the product of the pin sets and lift
  /// TruthTable::eval_ternary exactly, unless the product exceeds the cap —
  /// then widen every output to ⊤ (sound, never exact) and record the
  /// fallback. Returns true when any output port grew.
  bool table_transfer(NodeId id) {
    const Node& node = netlist.node(id);
    const unsigned pins = node.num_pins();
    const unsigned outs = node.num_ports();

    std::vector<TritSet> in_sets(pins);
    std::size_t product = 1;
    bool any_empty = false;
    for (unsigned pin = 0; pin < pins; ++pin) {
      in_sets[pin] = pin_set(PinRef(id, pin));
      const std::size_t card =
          static_cast<std::size_t>(__builtin_popcount(in_sets[pin]));
      if (card == 0) any_empty = true;
      product *= std::max<std::size_t>(card, 1);
      if (product > options.table_product_cap) break;
    }

    if (product > options.table_product_cap) {
      if (!table_fell_back[id.value]) {
        table_fell_back[id.value] = true;
        ++stats.table_fallbacks;
      }
      bool changed = false;
      for (unsigned port = 0; port < outs; ++port) {
        changed |= store(PortRef(id, port), kTritSetTop);
      }
      return changed;
    }
    if (any_empty) return false;  // some driver still ⊥ — nothing to emit

    const TruthTable& tt = netlist.table(node.table);
    std::vector<TritSet> out_sets(outs, kTritSetEmpty);
    std::vector<unsigned> choice(pins, 0);     // index into the pin's set
    std::vector<std::vector<Trit>> members(pins);
    for (unsigned pin = 0; pin < pins; ++pin) {
      for (unsigned i = 0; i < 3; ++i) {
        if (in_sets[pin] & (1u << i)) {
          members[pin].push_back(static_cast<Trit>(i));
        }
      }
    }
    std::vector<Trit> inputs(pins);
    while (true) {
      for (unsigned pin = 0; pin < pins; ++pin) {
        inputs[pin] = members[pin][choice[pin]];
      }
      const std::vector<Trit> result = tt.eval_ternary(inputs);
      for (unsigned port = 0; port < outs && port < result.size(); ++port) {
        out_sets[port] |= trit_set_of(result[port]);
      }
      // Odometer over the product of the member lists.
      unsigned pin = 0;
      while (pin < pins && ++choice[pin] == members[pin].size()) {
        choice[pin] = 0;
        ++pin;
      }
      if (pin == pins) break;
    }

    bool changed = false;
    for (unsigned port = 0; port < outs; ++port) {
      changed |= store(PortRef(id, port), out_sets[port]);
    }
    return changed;
  }

  /// Recomputes every output port of `id` from its current pin sets.
  /// Returns true when any port grew (sinks must then be revisited).
  bool transfer(NodeId id) {
    switch (netlist.kind(id)) {
      case CellKind::kInput:
        return store(PortRef(id, 0), kTritSetTop);
      case CellKind::kConst0:
        return store(PortRef(id, 0), trit_set_of(Trit::kZero));
      case CellKind::kConst1:
        return store(PortRef(id, 0), trit_set_of(Trit::kOne));
      case CellKind::kOutput:
        return false;  // no output ports; read via output_set()
      case CellKind::kLatch:
        // Cycle 0 contributes X (the all-X power-up state); every later
        // cycle contributes the data driver's value from the cycle before.
        return store(PortRef(id, 0),
                     static_cast<TritSet>(kSetX | pin_set(PinRef(id, 0))));
      case CellKind::kBuf:
        return store(PortRef(id, 0), pin_set(PinRef(id, 0)));
      case CellKind::kNot:
        return store(PortRef(id, 0), lift1(not3, pin_set(PinRef(id, 0))));
      case CellKind::kAnd:
        return store(PortRef(id, 0), fold_gate(id, and3, Trit::kOne, false));
      case CellKind::kNand:
        return store(PortRef(id, 0), fold_gate(id, and3, Trit::kOne, true));
      case CellKind::kOr:
        return store(PortRef(id, 0), fold_gate(id, or3, Trit::kZero, false));
      case CellKind::kNor:
        return store(PortRef(id, 0), fold_gate(id, or3, Trit::kZero, true));
      case CellKind::kXor:
        return store(PortRef(id, 0), fold_gate(id, xor3, Trit::kZero, false));
      case CellKind::kXnor:
        return store(PortRef(id, 0), fold_gate(id, xor3, Trit::kZero, true));
      case CellKind::kMux:
        return store(PortRef(id, 0), mux_set(id));
      case CellKind::kJunc: {
        const TritSet in = pin_set(PinRef(id, 0));
        bool changed = false;
        for (unsigned port = 0; port < netlist.num_ports(id); ++port) {
          changed |= store(PortRef(id, port), in);
        }
        return changed;
      }
      case CellKind::kTable:
        return table_transfer(id);
    }
    return false;
  }
};

}  // namespace

std::optional<Trit> trit_set_singleton(TritSet s) {
  if (!trit_set_is_singleton(s)) return std::nullopt;
  for (unsigned i = 0; i < 3; ++i) {
    if (s & (1u << i)) return static_cast<Trit>(i);
  }
  return std::nullopt;
}

std::string to_string_trit_set(TritSet s) {
  std::string out = "{";
  for (const Trit t : {Trit::kZero, Trit::kOne, Trit::kX}) {
    if (!trit_set_contains(s, t)) continue;
    if (out.size() > 1) out += ',';
    out += to_char(t);
  }
  out += '}';
  return out;
}

TritSet DataflowResult::pin_set(PinRef pin) const {
  const Node& node = netlist_->node(pin.node);
  if (pin.pin >= node.fanin.size()) return kTritSetTop;
  const PortRef drv = node.fanin[pin.pin];
  if (!drv.valid() || drv.node.value >= netlist_->num_slots() ||
      netlist_->is_dead(drv.node) ||
      drv.port >= netlist_->num_ports(drv.node)) {
    return kTritSetTop;
  }
  return set_for(drv);
}

TritSet DataflowResult::output_set(NodeId po) const {
  if (netlist_->num_pins(po) == 0) return kTritSetTop;
  return pin_set(PinRef(po, 0));
}

std::optional<bool> DataflowResult::constant_value(PortRef port) const {
  const std::optional<Trit> only = trit_set_singleton(set_for(port));
  if (!only || !is_definite(*only)) return std::nullopt;
  return to_bool(*only);
}

DataflowResult run_dataflow(const Netlist& netlist,
                            const DataflowOptions& options) {
  Engine engine(netlist, options);

  // FIFO worklist seeded with every live node in id order; the in-queue
  // flag keeps each node enqueued at most once at a time. Every transfer
  // function is monotone over a lattice of height 3 per port, so the loop
  // terminates after O(ports) growth events.
  std::deque<NodeId> worklist;
  std::vector<bool> queued(netlist.num_slots(), false);
  for (const NodeId id : netlist.live_nodes()) {
    worklist.push_back(id);
    queued[id.value] = true;
  }

  while (!worklist.empty()) {
    const NodeId id = worklist.front();
    worklist.pop_front();
    queued[id.value] = false;
    ++engine.stats.iterations;
    if (!engine.transfer(id)) continue;
    for (const auto& port_sinks : netlist.node(id).fanout) {
      for (const PinRef& sink : port_sinks) {
        if (!sink.node.valid() || sink.node.value >= netlist.num_slots() ||
            netlist.is_dead(sink.node) || queued[sink.node.value]) {
          continue;
        }
        worklist.push_back(sink.node);
        queued[sink.node.value] = true;
      }
    }
  }

  return DataflowResult(netlist, std::move(engine.ports),
                        std::move(engine.sets), engine.stats);
}

std::optional<std::string> static_cls_equivalence_proof(
    const Netlist& a, const Netlist& b, const DataflowOptions& options) {
  RTV_REQUIRE(a.primary_outputs().size() == b.primary_outputs().size(),
              "static_cls_equivalence_proof: primary output counts differ");
  const DataflowResult ra = run_dataflow(a, options);
  const DataflowResult rb = run_dataflow(b, options);
  for (std::size_t i = 0; i < a.primary_outputs().size(); ++i) {
    const TritSet sa = ra.output_set(a.primary_outputs()[i]);
    const TritSet sb = rb.output_set(b.primary_outputs()[i]);
    if (!trit_set_is_singleton(sa) || sa != sb) return std::nullopt;
  }
  return "all " + std::to_string(a.primary_outputs().size()) +
         " paired primary outputs carry equal singleton ternary fixpoint "
         "sets, so both designs produce identical CLS traces";
}

MoveCertificate certify_move(const Netlist& before, const RetimingMove& move,
                             const std::vector<bool>& observable,
                             bool try_fixpoint,
                             const DataflowOptions& options) {
  if (before.cell_function(move.element).preserves_all_x()) {
    return {true, CertificateArgument::kAllX,
            "element preserves all-X (Theorem 5.1)"};
  }
  if (!observable[move.element.value]) {
    return {true, CertificateArgument::kUnobservable,
            "element is unobservable from every primary output"};
  }
  if (!try_fixpoint) {
    return {false, CertificateArgument::kNone, "plan too large to replay"};
  }
  // Argument 3 needs every output of `before` pinned to one value set; one
  // fixpoint refutes that for most designs before any copy is made.
  const DataflowResult pre = run_dataflow(before, options);
  const std::vector<NodeId>& pos = before.primary_outputs();
  if (std::all_of(pos.begin(), pos.end(), [&](NodeId po) {
        return trit_set_is_singleton(pre.output_set(po));
      })) {
    Netlist after = before;
    apply_move(after, move);
    if (auto proof = static_cls_equivalence_proof(before, after, options)) {
      return {true, CertificateArgument::kFixpoint, std::move(*proof)};
    }
  }
  return {false, CertificateArgument::kNone,
          "no static argument applies; an engine backend must decide"};
}

}  // namespace rtv
