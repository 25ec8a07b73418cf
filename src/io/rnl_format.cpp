#include "io/rnl_format.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "util/bits.hpp"

namespace rtv {

std::string write_rnl(const Netlist& netlist) {
  // Work on a compacted copy so names and order are dense and stable.
  const Netlist n = netlist.compacted();
  std::ostringstream os;
  os << "rnl 1\n";

  // Tables referenced by live cells.
  std::unordered_map<std::uint32_t, std::string> table_names;
  for (const NodeId id : n.live_nodes()) {
    if (n.kind(id) != CellKind::kTable) continue;
    const TableId t = n.node(id).table;
    if (table_names.count(t.value) != 0) continue;
    const std::string name = indexed_name("t", table_names.size());
    table_names.emplace(t.value, name);
    const TruthTable& tt = n.table(t);
    os << "table " << name << " " << tt.num_inputs() << " "
       << tt.num_outputs() << "\n";
    for (std::uint64_t x = 0; x < pow2(tt.num_inputs()); ++x) {
      os << "row ";
      for (unsigned i = 0; i < tt.num_inputs(); ++i) {
        os << (get_bit(x, i) ? '1' : '0');
      }
      if (tt.num_inputs() == 0) os << '-';
      os << " ";
      const std::uint64_t row = tt.eval_row(x);
      for (unsigned j = 0; j < tt.num_outputs(); ++j) {
        os << (get_bit(row, j) ? '1' : '0');
      }
      os << "\n";
    }
  }

  for (const NodeId id : n.live_nodes()) {
    const Node& node = n.node(id);
    os << "node " << node.name << " " << cell_kind_name(node.kind);
    if (is_variadic_gate(node.kind)) {
      os << " " << node.num_pins();
    } else if (node.kind == CellKind::kJunc) {
      os << " " << node.num_ports();
    } else if (node.kind == CellKind::kTable) {
      os << " " << table_names.at(node.table.value);
    }
    os << "\n";
  }
  for (const NodeId id : n.live_nodes()) {
    const Node& node = n.node(id);
    for (std::uint32_t pin = 0; pin < node.num_pins(); ++pin) {
      const PortRef drv = node.fanin[pin];
      if (!drv.valid()) continue;
      os << "wire " << n.name(drv.node) << "." << drv.port << " "
         << node.name << "." << pin << "\n";
    }
  }
  return os.str();
}

namespace {

template <class... Parts>
[[noreturn]] void parse_fail(std::size_t line, const Parts&... parts) {
  std::string what = "rnl line " + std::to_string(line) + ": ";
  (what.append(parts), ...);
  throw ParseError(what);
}

// Tokens and numbers follow `std::istream` extraction in the classic locale
// (docs/formats.md): a token is a maximal run of bytes other than space,
// \t, \n, \v, \f and \r, and a number is an optional sign and the longest
// digit run after it, leaving whatever follows the digits for the next read.

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Removes the next token from the front of `rest` and returns it; empty
/// at the end of the line.
std::string_view next_token(std::string_view& rest) {
  const auto begin = std::find_if_not(rest.begin(), rest.end(), is_space);
  const auto end = std::find_if(begin, rest.end(), is_space);
  rest = std::string_view(end, rest.end());
  return {begin, end};
}

/// Removes the next number from the front of `rest` as `operator>>` into
/// T reads it: false if no digit follows the sign or the value overflows
/// T. A '-' negates in T's unsigned type, so "-1" is an unsigned maximum.
template <class T>
bool next_number(std::string_view& rest, T& out) {
  using U = std::make_unsigned_t<T>;
  rest = {std::find_if_not(rest.begin(), rest.end(), is_space), rest.end()};
  const bool negative = rest.starts_with('-');
  if (negative || rest.starts_with('+')) rest.remove_prefix(1);
  const U max = static_cast<U>(std::numeric_limits<T>::max()) +
                (negative && std::is_signed_v<T> ? U{1} : U{0});
  const auto end = std::find_if(rest.begin(), rest.end(),
                                [](char c) { return c < '0' || c > '9'; });
  if (end == rest.begin()) return false;
  U value = 0;
  for (auto it = rest.begin(); it != end; ++it) {
    const auto digit = static_cast<U>(*it - '0');
    if (value > (max - digit) / 10) return false;
    value = static_cast<U>(value * 10 + digit);
  }
  rest = {end, rest.end()};
  out = static_cast<T>(negative ? static_cast<U>(0 - value) : value);
  return true;
}

using TableNames = std::unordered_map<std::string_view, TableId>;

/// Splits "name.index", validating both halves.
std::pair<std::string_view, std::uint32_t> split_ref(std::size_t line,
                                                     std::string_view token) {
  const std::size_t dot = token.rfind('.');
  if (dot == std::string_view::npos || dot + 1 >= token.size()) {
    parse_fail(line, "expected <name>.<index>, got '", token, "'");
  }
  std::uint32_t index = 0;
  for (const char c : token.substr(dot + 1)) {
    if (c < '0' || c > '9') parse_fail(line, "bad index in '", token, "'");
    index = index * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return {token.substr(0, dot), index};
}

/// Adds the node a `node` line declares. A bad parameter or an unknown
/// table raises a ParseError without a line number.
NodeId add_node(Netlist& n, CellKind kind, std::string name,
                std::string_view param, const TableNames& tables) {
  const auto width = [param] {  // read as std::stoul reads it, then bounded
    std::string_view rest = param;
    unsigned long value = 0;
    if (!next_number(rest, value)) {
      throw ParseError("bad node parameter '" + std::string(param) + "'");
    }
    if (value > kMaxRnlCellWidth) {
      throw ParseError("node width " + std::string(param) +
                       " exceeds the bound " +
                       std::to_string(kMaxRnlCellWidth));
    }
    return static_cast<unsigned>(value);
  };
  switch (kind) {
    case CellKind::kInput:
      return n.add_input(std::move(name));
    case CellKind::kOutput:
      return n.add_output(std::move(name));
    case CellKind::kConst0:
      return n.add_const(false, std::move(name));
    case CellKind::kConst1:
      return n.add_const(true, std::move(name));
    case CellKind::kLatch:
      return n.add_latch(std::move(name));
    case CellKind::kJunc:
      return n.add_junc(width(), std::move(name));
    case CellKind::kTable: {
      const auto it = tables.find(param);
      if (it == tables.end()) {
        throw ParseError("unknown table '" + std::string(param) + "'");
      }
      return n.add_table_cell(it->second, std::move(name));
    }
    default:
      return n.add_gate(kind, param.empty() ? 0 : width(), std::move(name));
  }
}

}  // namespace

Netlist read_rnl(const std::string& text, bool validate) {
  Netlist n;
  // Open-addressed index from name to node: a slot holds a node id, and a
  // probe compares against that node's name, so no name is copied. A node
  // line takes at least 10 bytes ("node a or" and its newline), so there
  // are always more than twice as many slots as nodes.
  std::vector<std::uint32_t> slots(std::bit_ceil((text.size() + 1) / 5 + 2),
                                   NodeId::kNpos);
  const auto slot_of = [&](std::string_view name) -> std::uint32_t& {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(name) & mask;
    while (slots[i] != NodeId::kNpos && n.name(NodeId(slots[i])) != name) {
      i = (i + 1) & mask;
    }
    return slots[i];
  };
  TableNames tables_by_name;
  std::size_t line_no = 0;
  bool saw_header = false;

  // Pending table being read row by row.
  std::string_view pending_table_name;
  unsigned pending_inputs = 0, pending_outputs = 0;
  std::vector<std::uint64_t> pending_rows;
  std::uint64_t pending_expected = 0;

  const auto finish_table = [&](std::size_t line) {
    if (pending_table_name.empty()) return;
    if (pending_rows.size() != pending_expected) {
      parse_fail(line, "table '", pending_table_name, "' has ",
                 std::to_string(pending_rows.size()), " rows, expected ",
                 std::to_string(pending_expected));
    }
    tables_by_name.emplace(
        pending_table_name,
        n.add_table(TruthTable(pending_inputs, pending_outputs,
                               std::move(pending_rows))));
    pending_table_name = {};
    pending_rows = {};
  };

  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view raw(text.data() + begin, end - begin);
    begin = end + 1;
    ++line_no;
    std::string_view rest = raw.substr(0, raw.find('#'));
    const std::string_view cmd = next_token(rest);
    if (cmd.empty()) continue;

    if (cmd == "rnl") {
      int version = 0;
      if (!next_number(rest, version) || version != 1) {
        parse_fail(line_no, "bad version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) parse_fail(line_no, "missing 'rnl 1' header");

    if (cmd == "table") {
      finish_table(line_no);
      pending_table_name = next_token(rest);
      if (pending_table_name.empty() || !next_number(rest, pending_inputs) ||
          !next_number(rest, pending_outputs)) {
        parse_fail(line_no, "table needs <name> <inputs> <outputs>");
      }
      if (tables_by_name.count(pending_table_name) != 0) {
        parse_fail(line_no, "duplicate table name");
      }
      if (pending_inputs > kMaxTableInputs || pending_outputs < 1 ||
          pending_outputs > kMaxTableOutputs) {
        parse_fail(line_no, "table needs 0..", std::to_string(kMaxTableInputs),
                   " inputs and 1..", std::to_string(kMaxTableOutputs),
                   " outputs");
      }
      pending_expected = pow2(pending_inputs);
      pending_rows.clear();
      pending_rows.reserve(pending_expected);
    } else if (cmd == "row") {
      if (pending_table_name.empty()) parse_fail(line_no, "row outside table");
      const std::string_view in_bits = next_token(rest);
      const std::string_view out_bits = next_token(rest);
      if (out_bits.empty()) parse_fail(line_no, "row needs <inputs> <outputs>");
      // Rows must appear in minterm order; the input bits are a checksum.
      const std::uint64_t x = pending_rows.size();
      if (pending_inputs > 0) {
        if (in_bits.size() != pending_inputs) {
          parse_fail(line_no, "row input width mismatch");
        }
        for (unsigned i = 0; i < pending_inputs; ++i) {
          if ((in_bits[i] == '1') != get_bit(x, i)) {
            parse_fail(line_no, "rows out of minterm order");
          }
        }
      }
      if (out_bits.size() != pending_outputs) {
        parse_fail(line_no, "row output width mismatch");
      }
      std::uint64_t row = 0;
      for (unsigned j = 0; j < pending_outputs; ++j) {
        if (out_bits[j] == '1') {
          row |= (1ULL << j);
        } else if (out_bits[j] != '0') {
          parse_fail(line_no, "bad output bit");
        }
      }
      pending_rows.push_back(row);
    } else if (cmd == "node") {
      finish_table(line_no);
      const std::string_view name = next_token(rest);
      const std::string_view kind_name = next_token(rest);
      if (kind_name.empty()) parse_fail(line_no, "node needs <name> <kind>");
      if (NodeId(slot_of(name)).valid()) {
        parse_fail(line_no, "duplicate node name '", name, "'");
      }
      const std::string_view param = next_token(rest);
      NodeId id;
      try {
        id = add_node(n, cell_kind_from_name(kind_name), std::string(name),
                      param, tables_by_name);
      } catch (const Error& e) {
        parse_fail(line_no, e.what());
      } catch (const std::exception&) {
        parse_fail(line_no, "bad node parameter '", param, "'");
      }
      slot_of(name) = id.value;
    } else if (cmd == "wire") {
      finish_table(line_no);
      const std::string_view src = next_token(rest);
      const std::string_view dst = next_token(rest);
      if (dst.empty()) parse_fail(line_no, "wire needs <src> <dst>");
      const auto [src_name, port] = split_ref(line_no, src);
      const auto [dst_name, pin] = split_ref(line_no, dst);
      const NodeId from(slot_of(src_name));
      const NodeId to(slot_of(dst_name));
      if (!from.valid()) parse_fail(line_no, "unknown node '", src_name, "'");
      if (!to.valid()) parse_fail(line_no, "unknown node '", dst_name, "'");
      try {
        n.connect(PortRef(from, port), PinRef(to, pin));
      } catch (const Error& e) {
        parse_fail(line_no, e.what());
      }
    } else {
      parse_fail(line_no, "unknown directive '", cmd, "'");
    }
  }
  finish_table(line_no);
  if (!saw_header) parse_fail(0, "empty input");
  if (validate) {
    try {
      n.check_valid();
    } catch (const Error& e) {
      throw ParseError(std::string("rnl: ") + e.what());
    }
  }
  return n;
}

void save_rnl(const Netlist& netlist, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw IoError("cannot open '" + path + "' for writing");
  f << write_rnl(netlist);
  if (!f) throw IoError("write to '" + path + "' failed");
}

Netlist load_rnl(const std::string& path, bool validate) {
  std::ifstream f(path);
  if (!f) throw IoError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return read_rnl(buffer.str(), validate);
}

}  // namespace rtv
