// Differential tests for read_rnl: the single-pass reader against the
// istringstream reader it replaced, kept here as `reference_read_rnl`.
// Every accepted text must yield the same netlist (node ids, names, kinds,
// fanin and fanout order, tables, PI/PO/latch vectors) and every rejected
// text the same ParseError message. The one intended divergence is a
// `table` header out of the truth-table bounds, which the new reader
// rejects on its own line (TableHeaderOutOfBoundsIsAParseErrorOnItsLine).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "gen/random_circuits.hpp"
#include "io/rnl_format.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

// ---- reference reader --------------------------------------------------
// The reader as it stood before the single-pass rewrite, with one change:
// an unknown cell kind is reported with its line number (it used to
// escape as a bare "unknown cell kind: '...'").

[[noreturn]] void reference_parse_fail(std::size_t line,
                                       const std::string& what) {
  throw ParseError("rnl line " + std::to_string(line) + ": " + what);
}

std::pair<std::string, std::uint32_t> reference_split_ref(
    std::size_t line, const std::string& token) {
  const std::size_t dot = token.rfind('.');
  if (dot == std::string::npos || dot + 1 >= token.size()) {
    reference_parse_fail(line, "expected <name>.<index>, got '" + token + "'");
  }
  const std::string name = token.substr(0, dot);
  std::uint32_t index = 0;
  for (std::size_t i = dot + 1; i < token.size(); ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') {
      reference_parse_fail(line, "bad index in '" + token + "'");
    }
    index = index * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return {name, index};
}

Netlist reference_read_rnl(const std::string& text, bool validate = true) {
  Netlist n;
  std::unordered_map<std::string, NodeId> nodes_by_name;
  std::unordered_map<std::string, TableId> tables_by_name;

  std::istringstream is(text);
  std::string raw;
  std::size_t line_no = 0;
  bool saw_header = false;

  std::string pending_table_name;
  unsigned pending_inputs = 0, pending_outputs = 0;
  std::vector<std::uint64_t> pending_rows;
  std::uint64_t pending_expected = 0;

  const auto finish_table = [&](std::size_t line) {
    if (pending_table_name.empty()) return;
    if (pending_rows.size() != pending_expected) {
      reference_parse_fail(
          line, "table '" + pending_table_name + "' has " +
                    std::to_string(pending_rows.size()) + " rows, expected " +
                    std::to_string(pending_expected));
    }
    tables_by_name.emplace(
        pending_table_name,
        n.add_table(TruthTable(pending_inputs, pending_outputs,
                               std::move(pending_rows))));
    pending_table_name.clear();
    pending_rows = {};
  };

  while (std::getline(is, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream ls(raw);
    std::string cmd;
    if (!(ls >> cmd)) continue;

    if (cmd == "rnl") {
      int version = 0;
      if (!(ls >> version) || version != 1) {
        reference_parse_fail(line_no, "bad version");
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) reference_parse_fail(line_no, "missing 'rnl 1' header");

    if (cmd == "table") {
      finish_table(line_no);
      unsigned ins = 0, outs = 0;
      if (!(ls >> pending_table_name >> ins >> outs)) {
        reference_parse_fail(line_no, "table needs <name> <inputs> <outputs>");
      }
      if (tables_by_name.count(pending_table_name) != 0) {
        reference_parse_fail(line_no, "duplicate table name");
      }
      pending_inputs = ins;
      pending_outputs = outs;
      pending_expected = pow2(ins);
      pending_rows.clear();
      pending_rows.reserve(pending_expected);
    } else if (cmd == "row") {
      if (pending_table_name.empty()) {
        reference_parse_fail(line_no, "row outside table");
      }
      std::string in_bits, out_bits;
      if (!(ls >> in_bits >> out_bits)) {
        reference_parse_fail(line_no, "row needs <inputs> <outputs>");
      }
      const std::uint64_t x = pending_rows.size();
      if (pending_inputs > 0) {
        if (in_bits.size() != pending_inputs) {
          reference_parse_fail(line_no, "row input width mismatch");
        }
        for (unsigned i = 0; i < pending_inputs; ++i) {
          if ((in_bits[i] == '1') != get_bit(x, i)) {
            reference_parse_fail(line_no, "rows out of minterm order");
          }
        }
      }
      if (out_bits.size() != pending_outputs) {
        reference_parse_fail(line_no, "row output width mismatch");
      }
      std::uint64_t row = 0;
      for (unsigned j = 0; j < pending_outputs; ++j) {
        if (out_bits[j] == '1') {
          row |= (1ULL << j);
        } else if (out_bits[j] != '0') {
          reference_parse_fail(line_no, "bad output bit");
        }
      }
      pending_rows.push_back(row);
    } else if (cmd == "node") {
      finish_table(line_no);
      std::string name, kind_name, param;
      if (!(ls >> name >> kind_name)) {
        reference_parse_fail(line_no, "node needs <name> <kind>");
      }
      if (nodes_by_name.count(name) != 0) {
        reference_parse_fail(line_no, "duplicate node name '" + name + "'");
      }
      ls >> param;
      CellKind kind{};
      try {
        kind = cell_kind_from_name(kind_name);
      } catch (const ParseError& e) {  // the one change, see above
        reference_parse_fail(line_no, e.what());
      }
      NodeId id;
      try {
        switch (kind) {
          case CellKind::kInput:
            id = n.add_input(name);
            break;
          case CellKind::kOutput:
            id = n.add_output(name);
            break;
          case CellKind::kConst0:
            id = n.add_const(false, name);
            break;
          case CellKind::kConst1:
            id = n.add_const(true, name);
            break;
          case CellKind::kLatch:
            id = n.add_latch(name);
            break;
          case CellKind::kJunc:
            id = n.add_junc(static_cast<unsigned>(std::stoul(param)), name);
            break;
          case CellKind::kTable: {
            const auto it = tables_by_name.find(param);
            if (it == tables_by_name.end()) {
              reference_parse_fail(line_no, "unknown table '" + param + "'");
            }
            id = n.add_table_cell(it->second, name);
            break;
          }
          default:
            id = n.add_gate(
                kind,
                param.empty() ? 0 : static_cast<unsigned>(std::stoul(param)),
                name);
            break;
        }
      } catch (const ParseError&) {
        throw;
      } catch (const Error& e) {
        reference_parse_fail(line_no, e.what());
      } catch (const std::exception&) {
        reference_parse_fail(line_no, "bad node parameter '" + param + "'");
      }
      nodes_by_name.emplace(name, id);
    } else if (cmd == "wire") {
      finish_table(line_no);
      std::string src, dst;
      if (!(ls >> src >> dst)) {
        reference_parse_fail(line_no, "wire needs <src> <dst>");
      }
      const auto [src_name, port] = reference_split_ref(line_no, src);
      const auto [dst_name, pin] = reference_split_ref(line_no, dst);
      const auto src_it = nodes_by_name.find(src_name);
      const auto dst_it = nodes_by_name.find(dst_name);
      if (src_it == nodes_by_name.end()) {
        reference_parse_fail(line_no, "unknown node '" + src_name + "'");
      }
      if (dst_it == nodes_by_name.end()) {
        reference_parse_fail(line_no, "unknown node '" + dst_name + "'");
      }
      try {
        n.connect(PortRef(src_it->second, port), PinRef(dst_it->second, pin));
      } catch (const Error& e) {
        reference_parse_fail(line_no, e.what());
      }
    } else {
      reference_parse_fail(line_no, "unknown directive '" + cmd + "'");
    }
  }
  finish_table(line_no);
  if (!saw_header) reference_parse_fail(0, "empty input");
  if (validate) {
    try {
      n.check_valid();
    } catch (const Error& e) {
      throw ParseError(std::string("rnl: ") + e.what());
    }
  }
  return n;
}

// ---- comparison ---------------------------------------------------------

/// Node-for-node equality: same slots, kinds, names, pins and fanout
/// order, tables, and PI/PO/latch vectors.
void expect_same_netlist(const Netlist& got, const Netlist& want) {
  ASSERT_EQ(got.num_slots(), want.num_slots());
  for (std::uint32_t i = 0; i < got.num_slots(); ++i) {
    const Node& g = got.node(NodeId(i));
    const Node& w = want.node(NodeId(i));
    SCOPED_TRACE("node " + std::to_string(i) + " '" + w.name + "'");
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.dead, w.dead);
    EXPECT_EQ(g.table, w.table);
    EXPECT_EQ(g.fanin, w.fanin);
    EXPECT_EQ(g.fanout, w.fanout);
  }
  ASSERT_EQ(got.num_tables(), want.num_tables());
  for (std::uint32_t t = 0; t < got.num_tables(); ++t) {
    EXPECT_TRUE(got.table(TableId(t)) == want.table(TableId(t)));
  }
  EXPECT_EQ(got.primary_inputs(), want.primary_inputs());
  EXPECT_EQ(got.primary_outputs(), want.primary_outputs());
  EXPECT_EQ(got.latches(), want.latches());
  EXPECT_EQ(write_rnl(got), write_rnl(want));
}

/// A reader's outcome on one text: the netlist, or the ParseError message.
using Outcome = std::variant<Netlist, std::string>;

template <class Reader>
Outcome outcome_of(Reader read, const std::string& text, bool validate) {
  try {
    return read(text, validate);
  } catch (const ParseError& e) {
    return std::string(e.what());
  }
}

/// Both readers agree on `text`, with and without validation. Any
/// exception other than ParseError fails the test.
void expect_same_outcome(const std::string& text) {
  for (const bool validate : {true, false}) {
    SCOPED_TRACE("validate " + std::to_string(validate) + ", text:\n" + text);
    Outcome got, want;
    ASSERT_NO_THROW(got = outcome_of(read_rnl, text, validate));
    ASSERT_NO_THROW(want = outcome_of(reference_read_rnl, text, validate));
    ASSERT_EQ(got.index(), want.index())
        << (want.index() == 1 ? "reference: " + std::get<1>(want)
                              : "reader: " + std::get<1>(got));
    if (want.index() == 1) {
      EXPECT_EQ(std::get<1>(got), std::get<1>(want));
    } else {
      expect_same_netlist(std::get<0>(got), std::get<0>(want));
    }
  }
}

// ---- text helpers -------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Random designs covering every directive: tables, junctions, latches and
/// generator-named (unnamed) cells.
Netlist random_design(std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 1 + static_cast<unsigned>(rng.below(5));
  opt.num_outputs = 1 + static_cast<unsigned>(rng.below(3));
  opt.num_gates = 4 + static_cast<unsigned>(rng.below(30));
  opt.num_latches = static_cast<unsigned>(rng.below(6));
  opt.table_probability = rng.below(2) == 0 ? 0.0 : 0.3;
  opt.latch_after_gate_probability = 0.3;
  return random_netlist(opt, rng);
}

/// write_rnl's text with its wire lines shuffled, which reorders fanout.
std::string shuffled_wires(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  const auto first_wire =
      std::find_if(lines.begin(), lines.end(), [](const std::string& l) {
        return l.rfind("wire ", 0) == 0;
      });
  std::shuffle(first_wire, lines.end(), rng);
  return join_lines(lines);
}

TEST(RnlReader, MatchesReferenceOnRandomNetlists) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed ^ 0x5eedULL);
    const std::string text = write_rnl(random_design(seed));
    expect_same_outcome(text);
    expect_same_outcome(shuffled_wires(text, rng));
  }
}

TEST(RnlReader, ImplicitFanoutKeepsWireOrder) {
  // Not junction-normal: port in.0 drives three pins, declared out of
  // node order, so fanout order is the wire order.
  expect_same_outcome(
      "rnl 1\n"
      "node in input\nnode o1 output\nnode o2 output\nnode g not\n"
      "node o3 output\n"
      "wire in.0 o2.0\nwire g.0 o3.0\nwire in.0 g.0\nwire in.0 o1.0\n");
}

// ---- mutation sweep -----------------------------------------------------

/// One seeded corruption of `text`: the kinds of damage a hand-edited or
/// transmitted design picks up.
std::string mutate(const std::string& text, unsigned kind, Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  const auto pick_line = [&]() -> std::string& {
    return lines[rng.below(lines.size())];
  };
  switch (kind) {
    case 0:  // truncation at any byte
      return text.substr(0, rng.below(text.size() + 1));
    case 1:  // a dropped line
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(rng.below(lines.size())));
      return join_lines(lines);
    case 2: {  // a duplicated line
      const std::size_t i = rng.below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join_lines(lines);
    }
    case 3: {  // two tokens of one line swapped
      std::string& line = pick_line();
      std::vector<std::string> tokens;
      std::istringstream ls(line);
      for (std::string t; ls >> t;) tokens.push_back(t);
      if (tokens.size() >= 2) {
        std::swap(tokens[rng.below(tokens.size())],
                  tokens[rng.below(tokens.size())]);
      }
      line.clear();
      for (const std::string& t : tokens) line += t + " ";
      return join_lines(lines);
    }
    case 4: {  // CRLF line ends
      std::string out;
      for (const std::string& line : lines) out += line + "\r\n";
      return out;
    }
    case 5: {  // spaces turned into other whitespace
      std::string out = text;
      static const char kSpaces[] = {'\t', '\v', '\f', '\r', ' '};
      for (char& c : out) {
        if (c == ' ' && rng.below(2) == 0) c = kSpaces[rng.below(5)];
      }
      return out;
    }
    case 6: {  // a '#' comment inserted anywhere in a line
      std::string& line = pick_line();
      line.insert(rng.below(line.size() + 1), "# note");
      return join_lines(lines);
    }
    case 7: {  // no final newline
      std::string out = text;
      while (!out.empty() && out.back() == '\n') out.pop_back();
      return out;
    }
    case 8: {  // a non-ASCII (or NUL) byte anywhere
      std::string out = text;
      const char byte = rng.below(4) == 0
                            ? '\0'
                            : static_cast<char>(0x80 + rng.below(0x80));
      out.insert(rng.below(out.size() + 1), 1, byte);
      return out;
    }
    case 9: {  // two lines swapped, e.g. a wire before its node
      std::swap(pick_line(), pick_line());
      return join_lines(lines);
    }
    case 10: {  // one token dropped from a line
      std::string& line = pick_line();
      std::vector<std::string> tokens;
      std::istringstream ls(line);
      for (std::string t; ls >> t;) tokens.push_back(t);
      if (!tokens.empty()) {
        tokens.erase(tokens.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(tokens.size())));
      }
      line.clear();
      for (const std::string& t : tokens) line += " " + t;
      return join_lines(lines);
    }
    default: {  // blank and whitespace-only lines inserted
      lines.insert(lines.begin() +
                       static_cast<std::ptrdiff_t>(rng.below(lines.size() + 1)),
                   rng.below(2) == 0 ? "" : " \t ");
      return join_lines(lines);
    }
  }
}

constexpr unsigned kMutationKinds = 12;

std::vector<std::string> sweep_bases() {
  std::vector<std::string> bases;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTV_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".rnl") {
      bases.push_back(read_text(entry.path()));
    }
  }
  const std::size_t examples = bases.size();
  // Tables and rows appear in no example; two random designs add them.
  for (std::uint64_t seed = 0; bases.size() < 2 + examples; ++seed) {
    const std::string text = write_rnl(random_design(seed));
    if (text.find("\nrow ") != std::string::npos) bases.push_back(text);
  }
  return bases;
}

TEST(RnlReader, MutationSweepMatchesReference) {
  const std::vector<std::string> bases = sweep_bases();
  ASSERT_GE(bases.size(), 6u);
  ASSERT_NE(bases.back().find("\nrow "), std::string::npos);
  Rng rng(17);
  for (std::size_t b = 0; b < bases.size(); ++b) {
    expect_same_outcome(bases[b]);
    for (unsigned kind = 0; kind < kMutationKinds; ++kind) {
      for (int trial = 0; trial < 25; ++trial) {
        SCOPED_TRACE("base " + std::to_string(b) + ", mutation " +
                     std::to_string(kind) + ", trial " +
                     std::to_string(trial));
        std::string text = mutate(bases[b], kind, rng);
        // Stacked damage: a second mutation on a quarter of the texts.
        if (rng.below(4) == 0) {
          text = mutate(text, static_cast<unsigned>(rng.below(kMutationKinds)),
                        rng);
        }
        if (text.empty()) continue;
        expect_same_outcome(text);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---- lexical rules ------------------------------------------------------

TEST(RnlReader, NumericLeniencyMatchesStreamExtraction) {
  // Numbers read as `operator>>` read them: an optional sign, then the
  // longest digit run, with the rest of the token left for the next read.
  const std::string nodes = "node a input\nnode b input\nnode o output\n";
  const std::string wires = "wire a.0 g.0\nwire b.0 g.1\nwire g.0 o.0\n";
  for (const char* header : {"rnl +1", "rnl 01", "rnl 1x", "rnl 1.0",
                             "rnl\t+001", "rnl -1", "rnl +", "rnl 1e0",
                             "rnl 4294967297", "rnl", "rnl x1"}) {
    expect_same_outcome(std::string(header) + "\n" + nodes +
                        "node g and 2\n" + wires);
  }
  for (const char* gate :
       {"node g and 2", "node g and +2", "node g and 2x", "node g and 02",
        "node g and -0", "node g and 0x2", "node g and +", "node g and x",
        "node g and 18446744073709551617", "node g and -18446744073709551615",
        "node g xor 2.5", "node g nand 2", "node g or"}) {
    expect_same_outcome("rnl 1\n" + nodes + gate + "\n" + wires);
  }
  const std::string junc_nodes =
      "rnl 1\nnode a input\nnode o1 output\nnode o2 output\n";
  const std::string junc_wires = "wire a.0 j.0\nwire j.0 o1.0\nwire j.1 o2.0\n";
  for (const char* junc : {"node j junc 2", "node j junc 2x", "node j junc +2",
                           "node j junc", "node j junc 0", "node j junc -x"}) {
    expect_same_outcome(junc_nodes + junc + "\n" + junc_wires);
  }
  // The table header reads its two counts from one character stream, so
  // "1-1" is inputs 1 then outputs -1 (the unsigned maximum, out of bounds:
  // see TableHeaderOutOfBoundsIsAParseErrorOnItsLine).
  for (const char* table :
       {"table t 1 1", "table t +1 1", "table t 1 1x", "table t 1x 1",
        "table t 1", "table t", "table", "table t 01 +01",
        "table t -4294967295 1"}) {
    expect_same_outcome(std::string("rnl 1\n") + table +
                        "\nrow 0 0\nrow 1 1\nnode a input\nnode o output\n"
                        "node c table t\nwire a.0 c.0\nwire c.0 o.0\n");
  }
  // Known outcomes, not just agreement with the reference.
  EXPECT_EQ(read_rnl("rnl +1\n").num_slots(), 0u);
  const Netlist j = read_rnl(junc_nodes + "node j junc 2x\n" + junc_wires);
  EXPECT_EQ(j.num_ports(j.find_by_name("j")), 2u);
}

TEST(RnlReader, LineNumbersCountEveryLine) {
  // Blank, comment-only and CR-terminated lines all count.
  const std::string text =
      "rnl 1\r\n\n# comment\n   \t\nnode a input\r\nnode a input\n";
  try {
    read_rnl(text);
    FAIL() << "duplicate name accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "rnl line 6: duplicate node name 'a'");
  }
  expect_same_outcome(text);
}

TEST(RnlReader, TableHeaderOutOfBoundsIsAParseErrorOnItsLine) {
  const std::string body =
      "\nrow 0 0\nrow 1 1\nnode a input\nnode o output\n"
      "node c table t\nwire a.0 c.0\nwire c.0 o.0\n";
  for (const char* header :
       {"table t 17 1", "table t 40 1", "table t 64 1", "table t 4294967295 1",
        "table t 1 0", "table t 1 33", "table t 1 65", "table t 1-1"}) {
    SCOPED_TRACE(header);
    try {
      read_rnl("rnl 1\n# bounds\n" + std::string(header) + body);
      FAIL() << "out-of-bounds table accepted";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(),
                   "rnl line 3: table needs 0..16 inputs and 1..32 outputs");
    }
  }
  // The reference reader's outcomes on the headers it survives: a bare
  // InvalidArgument from pow2, or a ParseError lines later.
  EXPECT_THROW(reference_read_rnl("rnl 1\ntable t 64 1" + body),
               InvalidArgument);
  for (const char* header : {"table t 17 1", "table t 1-1", "table t 1 33"}) {
    SCOPED_TRACE(header);
    const Outcome want = outcome_of(
        reference_read_rnl, "rnl 1\n# bounds\n" + std::string(header) + body,
        true);
    ASSERT_EQ(want.index(), 1u);
    EXPECT_EQ(std::get<1>(want).rfind("rnl line 3:", 0), std::string::npos)
        << std::get<1>(want);
  }
  // The bounds themselves are accepted.
  EXPECT_NO_THROW(read_rnl("rnl 1\ntable t 0 32\nrow - " +
                               std::string(32, '1') +
                               "\nnode a output\nnode c table t\n"
                               "wire c.0 a.0\n",
                           /*validate=*/false));
}

TEST(RnlReader, NodeWidthOutOfBoundsIsAParseErrorOnItsLine) {
  for (const char* node :
       {"node g and 1000000000", "node g and 65537", "node j junc 65537",
        "node j junc 4294967297", "node g or -1"}) {
    SCOPED_TRACE(node);
    try {
      read_rnl("rnl 1\nnode a input\n" + std::string(node) + "\n");
      FAIL() << "out-of-bounds width accepted";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("rnl line 3: node width ", 0), 0u) << what;
      EXPECT_NE(what.find(" exceeds the bound 65536"), std::string::npos)
          << what;
    }
  }
  // The bound itself is accepted.
  const Netlist n = read_rnl("rnl 1\nnode g and 65536\nnode j junc 65536\n",
                             /*validate=*/false);
  EXPECT_EQ(n.num_pins(n.find_by_name("g")), kMaxRnlCellWidth);
  EXPECT_EQ(n.num_ports(n.find_by_name("j")), kMaxRnlCellWidth);
}

TEST(RnlReader, UnknownCellKindCarriesItsLine) {
  try {
    read_rnl("rnl 1\nnode a input\nnode g xr 2\n");
    FAIL() << "unknown kind accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "rnl line 3: unknown cell kind: 'xr'");
  }
}

}  // namespace
}  // namespace rtv
