#include "netlist/netlist.hpp"

#include <algorithm>
#include <sstream>

namespace rtv {

Node& Netlist::node_ref(NodeId id) {
  RTV_REQUIRE(id.valid() && id.value < nodes_.size(), "NodeId out of range");
  return nodes_[id.value];
}

const Node& Netlist::node_ref(NodeId id) const {
  RTV_REQUIRE(id.valid() && id.value < nodes_.size(), "NodeId out of range");
  return nodes_[id.value];
}

namespace {

/// True for names of fresh_name's shape, <prefix>_<digits>: the only names
/// a fresh name can repeat.
bool has_fresh_shape(const std::string& name) {
  const std::size_t last = name.find_last_not_of("0123456789");
  return last != std::string::npos && last + 1 < name.size() &&
         name[last] == '_';
}

}  // namespace

std::string indexed_name(std::string prefix, std::uint64_t index) {
  return prefix.append(std::to_string(index));
}

std::string Netlist::fresh_name(const char* prefix) {
  // Explicitly named nodes added since the last call (the first time, all
  // of a parsed design's nodes) are checked here, not as they are added,
  // so building a fully named netlist (read_rnl) never pays for it.
  for (; names_seen_ < nodes_.size(); ++names_seen_) {
    const std::string& taken = nodes_[names_seen_].name;
    if (has_fresh_shape(taken)) taken_names_.insert(taken);
  }
  std::string name;
  do {
    name = std::string(prefix) + "_" + std::to_string(name_counter_++);
  } while (!taken_names_.empty() && taken_names_.contains(name));
  // Fresh names never repeat one another (the counter only grows), so the
  // node new_node is about to append with this one is skipped.
  names_seen_ = nodes_.size() + 1;
  return name;
}

NodeId Netlist::new_node(CellKind kind, unsigned pins, unsigned ports,
                         std::string name) {
  Node n;
  n.kind = kind;
  n.name = name.empty() ? fresh_name(cell_kind_name(kind)) : std::move(name);
  n.fanin.resize(pins);
  n.fanout.resize(ports);
  nodes_.push_back(std::move(n));
  return NodeId(static_cast<std::uint32_t>(nodes_.size() - 1));
}

NodeId Netlist::add_input(std::string name) {
  const NodeId id = new_node(CellKind::kInput, 0, 1, std::move(name));
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_output(std::string name) {
  const NodeId id = new_node(CellKind::kOutput, 1, 0, std::move(name));
  outputs_.push_back(id);
  return id;
}

NodeId Netlist::add_const(bool value, std::string name) {
  return new_node(value ? CellKind::kConst1 : CellKind::kConst0, 0, 1,
                  std::move(name));
}

NodeId Netlist::add_gate(CellKind kind, unsigned fanin, std::string name) {
  unsigned pins = 0;
  if (fixed_pin_count(kind, pins)) {
    RTV_REQUIRE(kind == CellKind::kBuf || kind == CellKind::kNot ||
                    kind == CellKind::kMux,
                "add_gate only accepts logic gate kinds");
    RTV_REQUIRE(fanin == 0 || fanin == pins,
                "fanin does not match the gate's fixed arity");
  } else {
    RTV_REQUIRE(is_variadic_gate(kind), "add_gate only accepts gate kinds");
    RTV_REQUIRE(fanin >= 1, "variadic gate needs fanin >= 1");
    pins = fanin;
  }
  return new_node(kind, pins, 1, std::move(name));
}

NodeId Netlist::add_junc(unsigned width, std::string name) {
  RTV_REQUIRE(width >= 1, "junction width must be >= 1");
  return new_node(CellKind::kJunc, 1, width, std::move(name));
}

NodeId Netlist::add_latch(std::string name) {
  const NodeId id = new_node(CellKind::kLatch, 1, 1, std::move(name));
  latches_.push_back(id);
  return id;
}

TableId Netlist::add_table(TruthTable table) {
  // Dedupe identical functions so cell_function comparisons stay cheap.
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i] == table) return TableId(static_cast<std::uint32_t>(i));
  }
  tables_.push_back(std::move(table));
  return TableId(static_cast<std::uint32_t>(tables_.size() - 1));
}

NodeId Netlist::add_table_cell(TableId table, std::string name) {
  const TruthTable& t = this->table(table);
  const NodeId id =
      new_node(CellKind::kTable, t.num_inputs(), t.num_outputs(),
               std::move(name));
  node_ref(id).table = table;
  return id;
}

void Netlist::connect(PortRef from, PinRef to) {
  Node& src = node_ref(from.node);
  Node& dst = node_ref(to.node);
  RTV_REQUIRE(!src.dead && !dst.dead, "connect on a dead node");
  RTV_REQUIRE(from.port < src.num_ports(), "source port out of range");
  RTV_REQUIRE(to.pin < dst.num_pins(), "sink pin out of range");
  RTV_REQUIRE(!dst.fanin[to.pin].valid(), "sink pin already connected");
  dst.fanin[to.pin] = from;
  src.fanout[from.port].push_back(to);
}

void Netlist::connect(NodeId from_node, NodeId to_node, std::uint32_t pin) {
  connect(PortRef(from_node, 0), PinRef(to_node, pin));
}

void Netlist::disconnect(PinRef to) {
  Node& dst = node_ref(to.node);
  RTV_REQUIRE(to.pin < dst.num_pins(), "sink pin out of range");
  const PortRef from = dst.fanin[to.pin];
  RTV_REQUIRE(from.valid(), "pin is not connected");
  dst.fanin[to.pin] = PortRef();
  auto& sinks = node_ref(from.node).fanout[from.port];
  const auto it = std::find(sinks.begin(), sinks.end(), to);
  RTV_CHECK_MSG(it != sinks.end(), "fanout list out of sync with fanin");
  sinks.erase(it);
}

NodeId Netlist::insert_on_wire(PortRef driver, PinRef sink, CellKind kind,
                               std::string name) {
  RTV_REQUIRE(kind == CellKind::kLatch || kind == CellKind::kBuf,
              "insert_on_wire requires a 1-pin/1-port kind");
  RTV_REQUIRE(this->driver(sink) == driver,
              "insert_on_wire: sink is not driven by the given port");
  const NodeId mid = (kind == CellKind::kLatch) ? add_latch(std::move(name))
                                                : add_gate(kind, 0, std::move(name));
  disconnect(sink);
  connect(driver, PinRef(mid, 0));
  connect(PortRef(mid, 0), sink);
  return mid;
}

void Netlist::bypass_and_remove(NodeId id) {
  Node& n = node_ref(id);
  RTV_REQUIRE(!n.dead, "bypass_and_remove on a dead node");
  RTV_REQUIRE(n.num_pins() == 1 && n.num_ports() == 1,
              "bypass_and_remove requires a 1-pin/1-port node");
  const PortRef drv = n.fanin[0];
  RTV_REQUIRE(drv.valid(), "bypass_and_remove: node has no driver");
  const std::vector<PinRef> downstream = n.fanout[0];
  for (const PinRef& sink : downstream) disconnect(sink);
  disconnect(PinRef(id, 0));
  for (const PinRef& sink : downstream) connect(drv, sink);
  n.dead = true;
  if (n.kind == CellKind::kLatch) {
    const auto it = std::find(latches_.begin(), latches_.end(), id);
    RTV_CHECK(it != latches_.end());
    latches_.erase(it);
  }
}

PortRef Netlist::driver(PinRef pin) const {
  const Node& n = node_ref(pin.node);
  RTV_REQUIRE(pin.pin < n.num_pins(), "pin index out of range");
  return n.fanin[pin.pin];
}

const std::vector<PinRef>& Netlist::sinks(PortRef port) const {
  const Node& n = node_ref(port.node);
  RTV_REQUIRE(port.port < n.num_ports(), "port index out of range");
  return n.fanout[port.port];
}

PinRef Netlist::sole_sink(PortRef port) const {
  const auto& s = sinks(port);
  RTV_REQUIRE(s.size() == 1, "port does not have exactly one sink");
  return s[0];
}

std::size_t Netlist::num_live_nodes() const {
  std::size_t count = 0;
  for (const Node& n : nodes_) {
    if (!n.dead) ++count;
  }
  return count;
}

std::size_t Netlist::num_gates() const {
  std::size_t count = 0;
  for (const Node& n : nodes_) {
    if (!n.dead && is_combinational(n.kind)) ++count;
  }
  return count;
}

std::vector<NodeId> Netlist::live_nodes() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].dead) ids.push_back(NodeId(i));
  }
  return ids;
}

const TruthTable& Netlist::table(TableId id) const {
  RTV_REQUIRE(id.valid() && id.value < tables_.size(), "TableId out of range");
  return tables_[id.value];
}

TruthTable Netlist::cell_function(NodeId id) const {
  const Node& n = node_ref(id);
  RTV_REQUIRE(is_combinational(n.kind),
              "cell_function is defined for combinational cells only");
  switch (n.kind) {
    case CellKind::kConst0:
      return TruthTable::const0();
    case CellKind::kConst1:
      return TruthTable::const1();
    case CellKind::kBuf:
      return TruthTable::buf();
    case CellKind::kNot:
      return TruthTable::inv();
    case CellKind::kAnd:
      return TruthTable::and_gate(n.num_pins());
    case CellKind::kOr:
      return TruthTable::or_gate(n.num_pins());
    case CellKind::kNand:
      return TruthTable::nand_gate(n.num_pins());
    case CellKind::kNor:
      return TruthTable::nor_gate(n.num_pins());
    case CellKind::kXor:
      return TruthTable::xor_gate(n.num_pins());
    case CellKind::kXnor:
      return TruthTable::xnor_gate(n.num_pins());
    case CellKind::kMux:
      return TruthTable::mux();
    case CellKind::kJunc:
      return TruthTable::junc(n.num_ports());
    case CellKind::kTable:
      return table(n.table);
    default:
      throw InternalError("unhandled combinational kind");
  }
}

bool Netlist::is_justifiable(NodeId id) const {
  const Node& n = node_ref(id);
  RTV_REQUIRE(is_combinational(n.kind),
              "justifiability is defined for combinational cells only");
  switch (n.kind) {
    case CellKind::kConst0:
    case CellKind::kConst1:
      return false;  // single reachable output vector
    case CellKind::kBuf:
    case CellKind::kNot:
    case CellKind::kAnd:
    case CellKind::kOr:
    case CellKind::kNand:
    case CellKind::kNor:
    case CellKind::kXor:
    case CellKind::kXnor:
    case CellKind::kMux:
      return true;  // non-constant single-output gates reach both 0 and 1
    case CellKind::kJunc:
      return n.num_ports() == 1;  // JUNC_1 degenerates to a buffer
    case CellKind::kTable:
      return table(n.table).is_justifiable();
    default:
      throw InternalError("unhandled combinational kind");
  }
}

void Netlist::set_name(NodeId id, std::string name) {
  // A node fresh_name has already seen keeps its old name taken too.
  if (id.value < names_seen_ && has_fresh_shape(name)) {
    taken_names_.insert(name);
  }
  node_ref(id).name = std::move(name);
}

NodeId Netlist::find_by_name(const std::string& name) const {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].dead && nodes_[i].name == name) return NodeId(i);
  }
  return NodeId();
}

std::string Netlist::summary() const {
  std::ostringstream os;
  os << "netlist: " << inputs_.size() << " PI, " << outputs_.size() << " PO, "
     << num_latches() << " latches, " << num_gates() << " gates";
  return os.str();
}

}  // namespace rtv
