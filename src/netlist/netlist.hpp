#pragma once
// Gate-level synchronous netlist (paper Section 3.2).
//
// A netlist is an interconnection of library cells: combinational gates,
// fanout junctions (JUNC), generic table cells, and edge-triggered latches
// with no set/reset pins, all clocked by a single implicit clock. Every
// connection is point-to-point: an output *port* of one node drives an input
// *pin* of another. Multi-fanout is expressed either implicitly (a port with
// several sink pins — convenient while building) or explicitly through JUNC
// cells (the paper's normal form, required by the retiming move engine);
// Netlist::junctionize() converts the former into the latter.
//
// Nodes are identified by dense NodeId handles. Deletions tombstone the slot
// (is_dead); compacted() produces a dense renumbered copy.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "netlist/cell.hpp"
#include "ternary/truth_table.hpp"
#include "util/error.hpp"

namespace rtv {

/// Dense handle to a netlist node.
struct NodeId {
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  std::uint32_t value = kNpos;

  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : value(v) {}
  constexpr bool valid() const { return value != kNpos; }
  constexpr auto operator<=>(const NodeId&) const = default;
};

/// An output port of a node (the driving side of a wire).
struct PortRef {
  NodeId node;
  std::uint32_t port = 0;

  constexpr PortRef() = default;
  constexpr PortRef(NodeId n, std::uint32_t p) : node(n), port(p) {}
  constexpr bool valid() const { return node.valid(); }
  constexpr auto operator<=>(const PortRef&) const = default;
};

/// An input pin of a node (the receiving side of a wire).
struct PinRef {
  NodeId node;
  std::uint32_t pin = 0;

  constexpr PinRef() = default;
  constexpr PinRef(NodeId n, std::uint32_t p) : node(n), pin(p) {}
  constexpr bool valid() const { return node.valid(); }
  constexpr auto operator<=>(const PinRef&) const = default;
};

/// Identifier of a TruthTable registered with the netlist.
struct TableId {
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  std::uint32_t value = kNpos;

  constexpr TableId() = default;
  constexpr explicit TableId(std::uint32_t v) : value(v) {}
  constexpr bool valid() const { return value != kNpos; }
  constexpr auto operator<=>(const TableId&) const = default;
};

/// Machine-readable category of a structural defect found by
/// Netlist::structural_violations(). The analysis layer maps these onto
/// its RTV1xx diagnostic codes; keep the set stable.
enum class ViolationKind : std::uint8_t {
  kUnconnectedPin,      ///< input pin with no driver
  kMultiDrivenPin,      ///< pin listed as the sink of more than one port
  kBadArity,            ///< pin/port count illegal for the cell kind
  kBadTable,            ///< dangling table id or table/cell arity mismatch
  kBrokenCrossLink,     ///< fanin/fanout disagree or dead/out-of-range refs
  kIndexOutOfSync,      ///< PI/PO/latch index vector inconsistent
  kCombinationalCycle,  ///< latch-free feedback cycle
  kImplicitFanout,      ///< port with >1 sink (junction-normal mode only)
};

const char* to_string(ViolationKind kind);

/// One structural defect. `node` is the offending node (invalid for
/// netlist-wide problems such as index desync); `message` is the human
/// description check_valid() used to throw.
struct StructuralViolation {
  ViolationKind kind = ViolationKind::kUnconnectedPin;
  NodeId node;
  std::string message;
};

/// One netlist node.
struct Node {
  CellKind kind = CellKind::kBuf;
  std::string name;
  /// Per input pin: the driving output port (invalid while unconnected).
  std::vector<PortRef> fanin;
  /// Per output port: the sink pins (size > 1 means implicit fanout).
  std::vector<std::vector<PinRef>> fanout;
  /// Function definition for kTable cells.
  TableId table;
  /// Tombstone flag (slot retained so NodeIds stay stable).
  bool dead = false;

  unsigned num_pins() const { return static_cast<unsigned>(fanin.size()); }
  unsigned num_ports() const { return static_cast<unsigned>(fanout.size()); }
};

class Netlist {
 public:
  Netlist() = default;

  // ---- construction --------------------------------------------------------

  NodeId add_input(std::string name = "");
  NodeId add_output(std::string name = "");
  NodeId add_const(bool value, std::string name = "");
  /// Adds a gate of kind kBuf/kNot/kMux (fixed arity, pass 0 to use it) or a
  /// variadic gate kAnd..kXnor with the given fanin (>= 1).
  NodeId add_gate(CellKind kind, unsigned fanin = 0, std::string name = "");
  NodeId add_junc(unsigned width, std::string name = "");
  NodeId add_latch(std::string name = "");
  TableId add_table(TruthTable table);
  NodeId add_table_cell(TableId table, std::string name = "");

  /// Connects an output port to an input pin. The pin must be unconnected.
  void connect(PortRef from, PinRef to);
  /// Shorthand: connect port 0 of `from_node` to pin `pin` of `to_node`.
  void connect(NodeId from_node, NodeId to_node, std::uint32_t pin = 0);
  /// Detaches a connected pin from its driver.
  void disconnect(PinRef to);

  // ---- structural edits (used by the retiming move engine) -----------------

  /// Inserts a fresh 1-pin/1-port node (kLatch or kBuf) on the wire
  /// driver -> sink and returns it.
  NodeId insert_on_wire(PortRef driver, PinRef sink, CellKind kind,
                        std::string name = "");
  /// Removes a 1-pin/1-port node, reconnecting its driver to its sinks.
  void bypass_and_remove(NodeId node);

  // ---- queries --------------------------------------------------------------

  /// Total slots including tombstones; valid NodeId values are < num_slots().
  std::size_t num_slots() const { return nodes_.size(); }
  bool is_dead(NodeId id) const { return node_ref(id).dead; }
  const Node& node(NodeId id) const { return node_ref(id); }
  CellKind kind(NodeId id) const { return node_ref(id).kind; }
  unsigned num_pins(NodeId id) const { return node_ref(id).num_pins(); }
  unsigned num_ports(NodeId id) const { return node_ref(id).num_ports(); }
  PortRef driver(PinRef pin) const;
  const std::vector<PinRef>& sinks(PortRef port) const;
  /// The unique sink of a port in junction-normal form; throws if fanout != 1.
  PinRef sole_sink(PortRef port) const;

  /// Primary inputs / outputs / latches in creation order. These orders
  /// define the layout of simulation input, output, and state vectors.
  const std::vector<NodeId>& primary_inputs() const { return inputs_; }
  const std::vector<NodeId>& primary_outputs() const { return outputs_; }
  const std::vector<NodeId>& latches() const { return latches_; }

  std::size_t num_live_nodes() const;
  std::size_t num_latches() const { return latches_.size(); }
  /// Number of live combinational cells (gates + junctions + tables + consts).
  std::size_t num_gates() const;

  std::vector<NodeId> live_nodes() const;

  const TruthTable& table(TableId id) const;
  std::size_t num_tables() const { return tables_.size(); }

  /// The Boolean function of a combinational node as a TruthTable.
  /// Throws InvalidArgument for inputs/outputs/latches.
  TruthTable cell_function(NodeId id) const;

  /// The paper's justifiability predicate for a combinational node:
  /// is the cell's output function surjective onto 2^m? Constants and
  /// JUNC(k>=2) are non-justifiable; all non-constant single-output gates
  /// are justifiable.
  bool is_justifiable(NodeId id) const;

  /// Name accessor; empty if unnamed.
  const std::string& name(NodeId id) const { return node_ref(id).name; }
  void set_name(NodeId id, std::string name);
  /// Linear search by name over live nodes (testing convenience).
  NodeId find_by_name(const std::string& name) const;

  // ---- passes (passes.cpp) --------------------------------------------------

  /// Replaces every implicit multi-fanout port with an explicit JUNC cell so
  /// that each output of each cell drives exactly one pin (Section 3.2).
  /// Ports of JUNC cells themselves are never re-junctionized. Returns the
  /// number of junctions inserted.
  std::size_t junctionize();

  /// True iff no port (other than a port already on a JUNC being its own
  /// fanout tree) has more than one sink pin.
  bool is_junction_normal() const;

  /// Returns a dense copy with tombstones removed. If `old_to_new` is given,
  /// it is filled with the id remapping (invalid for dead slots).
  Netlist compacted(std::vector<NodeId>* old_to_new = nullptr) const;

  /// Removes every node that cannot influence any primary output (backward
  /// closure from the POs through gates and latches). Primary inputs are
  /// kept even when unobservable (the interface is part of the contract).
  /// Returns the number of nodes removed.
  std::size_t sweep_unobservable();

  /// Constant propagation to a fixpoint: evaluates combinational cells
  /// whose inputs are all constants, applies dominant-value shortcuts
  /// (0 into AND, 1 into OR, ...), forwards buffers and constant-selected
  /// muxes, and then re-junctionizes. Does not touch latches. Returns the
  /// number of cells simplified away.
  std::size_t propagate_constants();

  /// Removes dangling structure left behind by other passes: nodes none of
  /// whose ports drive anything (recursively), and junctions with unused
  /// branches (shrunk, or dissolved when one branch remains). Primary
  /// inputs are kept. Restores the every-port-has-a-sink invariant the
  /// retiming move engine relies on. Returns the number of nodes removed
  /// or rebuilt.
  std::size_t trim_dangling();

  /// Structural validation: every pin connected, no multi-driven pins,
  /// fanout/fanin cross-linked consistently, arities legal, index vectors in
  /// sync, every cycle crosses a latch. Unlike check_valid this accumulates
  /// every violation instead of stopping at the first, so callers (the lint
  /// pass framework in src/analysis) can report all problems in one run.
  std::vector<StructuralViolation> structural_violations(
      bool require_junction_normal = false) const;

  /// Throwing wrapper around structural_violations(): raises InvalidArgument
  /// describing the first problem found; no-op on a sound netlist.
  void check_valid(bool require_junction_normal = false) const;

  /// True iff deleting all latches leaves an acyclic combinational graph —
  /// i.e. every cycle contains at least one latch (the synchrony condition).
  bool every_cycle_has_latch() const;

  /// True iff every combinational cell maps all-X inputs to all-X outputs
  /// (the Section 5 assumption; constants violate it).
  bool all_cells_preserve_all_x() const;

  /// One-line summary, e.g. "netlist: 3 PI, 2 PO, 4 latches, 17 gates".
  std::string summary() const;

 private:
  friend std::vector<NodeId> combinational_topo_order(const Netlist&);

  /// A live combinational node on some latch-free cycle, or invalid if
  /// every cycle crosses a latch.
  NodeId combinational_cycle_witness() const;

  Node& node_ref(NodeId id);
  const Node& node_ref(NodeId id) const;
  NodeId new_node(CellKind kind, unsigned pins, unsigned ports,
                  std::string name);
  std::string fresh_name(const char* prefix);

  std::vector<Node> nodes_;
  std::vector<TruthTable> tables_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> latches_;
  std::uint64_t name_counter_ = 0;
  /// The names fresh_name must avoid: those of explicitly named nodes in
  /// nodes_[0, names_seen_) that have its <prefix>_<digits> shape.
  std::unordered_set<std::string> taken_names_;
  std::size_t names_seen_ = 0;
};

/// Topological order of the live nodes for one-cycle evaluation: inputs,
/// constants and latches first (as combinational sources), then every
/// combinational node after all of its drivers, then primary outputs.
/// Throws InvalidArgument if a combinational cycle exists.
std::vector<NodeId> combinational_topo_order(const Netlist& netlist);

/// The latch-free feedback cycles of the netlist, reported as the strongly
/// connected components of the combinational subgraph (edges through
/// latches and primary inputs are cut, so every SCC here violates the
/// synchrony condition). Only offending SCCs are returned: components of
/// two or more cells, or a single cell driving itself. Each component is
/// sorted by NodeId and the list is ordered by smallest member, so output
/// is deterministic. Tolerates structurally broken netlists (dangling or
/// out-of-range references are skipped), which is what makes it usable
/// from lint before validity is established.
std::vector<std::vector<NodeId>> combinational_sccs(const Netlist& netlist);

/// Per-slot observability: mask[id.value] is true iff `id` can influence
/// some primary output through a chain of fanin edges (the backward
/// closure that sweep_unobservable() deletes against). Dead slots are
/// false; tolerates structurally broken netlists.
std::vector<bool> observable_mask(const Netlist& netlist);

/// `prefix`, then `index` in decimal ("r", 3 -> "r3"), built without the
/// inlined insert of "r" + std::to_string(3) that GCC 12 -O3 warns about.
std::string indexed_name(std::string prefix, std::uint64_t index);

}  // namespace rtv
