#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/safety.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "io/dot_export.hpp"
#include "io/rnl_format.hpp"
#include "retime/graph.hpp"
#include "sim/binary_sim.hpp"
#include "stg/stg.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::random_legal_lag;
using testing::toggle_circuit;

/// Structural + behavioural round-trip check.
void expect_round_trip(const Netlist& original) {
  const std::string text = write_rnl(original);
  const Netlist parsed = read_rnl(text);
  EXPECT_EQ(parsed.primary_inputs().size(), original.primary_inputs().size());
  EXPECT_EQ(parsed.primary_outputs().size(),
            original.primary_outputs().size());
  EXPECT_EQ(parsed.num_latches(), original.num_latches());
  EXPECT_EQ(parsed.num_gates(), original.num_gates());
  // Same text on re-serialization (canonical form is stable).
  EXPECT_EQ(write_rnl(parsed), text);
  // Same behaviour when small enough.
  if (original.num_latches() <= 8 && original.primary_inputs().size() <= 6) {
    const Stg a = Stg::extract(original);
    const Stg b = Stg::extract(parsed);
    EXPECT_TRUE(implies(a, b));
    EXPECT_TRUE(implies(b, a));
  }
}

TEST(Rnl, RoundTripToggle) { expect_round_trip(toggle_circuit()); }

TEST(Rnl, RoundTripPaperCircuits) {
  expect_round_trip(figure1_original());
  expect_round_trip(figure1_retimed());
}

TEST(Rnl, RoundTripWithTables) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const TableId t = n.add_table(TruthTable::half_adder());
  const NodeId ha = n.add_table_cell(t, "ha");
  const NodeId o1 = n.add_output("s");
  const NodeId o2 = n.add_output("c");
  n.connect(a, ha, 0);
  n.connect(b, ha, 1);
  n.connect(PortRef(ha, 0), PinRef(o1, 0));
  n.connect(PortRef(ha, 1), PinRef(o2, 0));
  n.check_valid(true);
  expect_round_trip(n);
  // Table semantics preserved exactly.
  const Netlist parsed = read_rnl(write_rnl(n));
  const NodeId cell = parsed.find_by_name("ha");
  EXPECT_EQ(parsed.cell_function(cell), TruthTable::half_adder());
}

TEST(Rnl, RoundTripRandomCircuits) {
  Rng rng(99);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_latches = 4;
  opt.num_gates = 20;
  opt.table_probability = 0.25;
  for (int trial = 0; trial < 5; ++trial) {
    expect_round_trip(random_netlist(opt, rng));
  }
}

/// Retimes `parsed` with a random legal lag and checks that the written
/// text of the retimed design reads back and re-serializes unchanged.
void expect_retimed_round_trip(const Netlist& parsed, Rng& rng) {
  const RetimeGraph g = RetimeGraph::from_netlist(parsed);
  SequencedRetiming seq;
  analyze_lag_retiming(parsed, g, random_legal_lag(g, rng), &seq);
  const std::string text = write_rnl(seq.retimed);
  Netlist back;
  ASSERT_NO_THROW(back = read_rnl(text)) << text;
  EXPECT_EQ(write_rnl(back), text);
}

TEST(Rnl, RetimedCopiesOfParsedDesignsRoundTrip) {
  // A parsed design already holds generated names such as latch_0.
  // Retiming it adds unnamed latches, whose fresh names must not repeat
  // them, or read_rnl rejects the written text ("duplicate node name").
  RandomCircuitOptions opt;
  opt.latch_after_gate_probability = 0.3;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Netlist parsed;
    ASSERT_NO_THROW(parsed = read_rnl(write_rnl(random_netlist(opt, rng))));
    expect_retimed_round_trip(parsed, rng);
  }
}

TEST(Rnl, RegressFreshNamesAvoidParsedNames) {
  // The first design of the sweep above whose retimed copy repeated a
  // latch name, retimed with that sweep's lag draws.
  const Netlist parsed = load_rnl(RTV_REGRESS_DIR "/fresh_name_seed1.rnl");
  RandomCircuitOptions opt;
  opt.latch_after_gate_probability = 0.3;
  Rng rng(1);
  random_netlist(opt, rng);  // replays the draws that built the design
  expect_retimed_round_trip(parsed, rng);
}

TEST(Rnl, FileSaveLoad) {
  const std::string path = ::testing::TempDir() + "/rtv_roundtrip.rnl";
  save_rnl(toggle_circuit(), path);
  const Netlist loaded = load_rnl(path);
  EXPECT_EQ(loaded.num_latches(), 1u);
  std::remove(path.c_str());
}

TEST(Rnl, LoadMissingFileThrows) {
  EXPECT_THROW(load_rnl("/nonexistent/path/x.rnl"), Error);
}

TEST(Rnl, ParseErrors) {
  EXPECT_THROW(read_rnl(""), ParseError);
  EXPECT_THROW(read_rnl("node a input\n"), ParseError);  // missing header
  EXPECT_THROW(read_rnl("rnl 2\n"), ParseError);         // bad version
  EXPECT_THROW(read_rnl("rnl 1\nfrobnicate\n"), ParseError);
  EXPECT_THROW(read_rnl("rnl 1\nnode a bogus_kind\n"), ParseError);
  EXPECT_THROW(read_rnl("rnl 1\nnode a input\nnode a input\n"), ParseError);
  EXPECT_THROW(read_rnl("rnl 1\nwire a.0 b.0\n"), ParseError);
  EXPECT_THROW(read_rnl("rnl 1\nnode a input\nnode o output\nwire a.5 o.0\n"),
               ParseError);
  EXPECT_THROW(read_rnl("rnl 1\nnode g and 2\n"), ParseError);  // dangling pins
  EXPECT_THROW(read_rnl("rnl 1\nrow 00 1\n"), ParseError);  // row w/o table
}

TEST(Rnl, ParseErrorCarriesLineNumber) {
  try {
    read_rnl("rnl 1\nnode a input\nfrobnicate\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Rnl, CommentsAndBlankLines) {
  const Netlist n = read_rnl(
      "rnl 1\n"
      "# a comment\n"
      "\n"
      "node a input  # trailing comment\n"
      "node o output\n"
      "wire a.0 o.0\n");
  EXPECT_EQ(n.primary_inputs().size(), 1u);
}

TEST(Rnl, TableRowOrderEnforced) {
  EXPECT_THROW(read_rnl(
                   "rnl 1\n"
                   "table t 1 1\n"
                   "row 1 1\n"
                   "row 0 0\n"),
               ParseError);
}

TEST(Rnl, PreservesIoOrder) {
  Netlist n;
  n.add_input("second_created_first");
  n.add_input("then_this");
  const NodeId o = n.add_output("o");
  const NodeId g = n.add_gate(CellKind::kOr, 2, "g");
  n.connect(n.primary_inputs()[0], g, 0);
  n.connect(n.primary_inputs()[1], g, 1);
  n.connect(PortRef(g, 0), PinRef(o, 0));
  const Netlist p = read_rnl(write_rnl(n));
  EXPECT_EQ(p.name(p.primary_inputs()[0]), "second_created_first");
  EXPECT_EQ(p.name(p.primary_inputs()[1]), "then_this");
}

TEST(Dot, NetlistExportMentionsNodes) {
  const std::string dot = netlist_to_dot(figure1_original());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("AND1"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // the latch
  EXPECT_NE(dot.find("diamond"), std::string::npos);       // junctions
}

TEST(Dot, StgExportHasAllEdges) {
  const Stg s = Stg::extract(toggle_circuit());
  const std::string dot = stg_to_dot(s);
  EXPECT_NE(dot.find("s0 -> s1"), std::string::npos);
  EXPECT_NE(dot.find("s1 -> s0"), std::string::npos);
}

}  // namespace
}  // namespace rtv
