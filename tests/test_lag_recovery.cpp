// Plan-free certificates: recover_lag (retime/graph.hpp) reads the lag that
// retimes one design into another off the two retiming graphs, and the
// certificate stage of verify_cls_equivalence proves the pair when every
// move of that lag carries Thm 5.1's per-move certificate. Recovery must
// return the plan's lag for genuine retimings (through a .rnl round trip),
// decline every pair that is not one, and a decline must leave the verdict
// exactly as the engines give it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/safety.hpp"
#include "core/verify.hpp"
#include "fault/fault.hpp"
#include "gen/datapath.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/rnl_format.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::random_legal_lag;

/// The design a designer hands over: compacted and written as .rnl text.
Netlist round_trip(const Netlist& n) {
  return read_rnl(write_rnl(n.compacted()));
}

/// Vertices joined to a host by edges of either direction.
std::vector<bool> host_connected(const RetimeGraph& g) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<std::uint32_t> queue{RetimeGraph::kHostSource,
                                   RetimeGraph::kHostSink};
  seen[0] = seen[1] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    const auto visit = [&](std::uint32_t v) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    };
    for (const std::uint32_t i : g.out_edges(u)) visit(g.edge(i).to);
    for (const std::uint32_t i : g.in_edges(u)) visit(g.edge(i).from);
  }
  return seen;
}

bool is_certificate(const ClsEquivalenceResult& r) {
  return r.decided_by == EquivalenceBackend::kStatic &&
         r.decided_reason.rfind("per-move certificate: ", 0) == 0;
}

struct Case {
  std::string name;
  Netlist netlist;
  std::vector<int> lag;
};

/// ≥ 300 seeded random designs (half with table cells) under random legal
/// lags, plus the generator families under min-area, min-period and
/// random lags.
std::vector<Case> sweep() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < 320; ++seed) {
    Rng rng(seed * 6151 + 5);
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(2));
    opt.num_outputs = 1 + static_cast<unsigned>(rng.below(2));
    opt.num_gates = 4 + static_cast<unsigned>(rng.below(9));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(4));
    opt.table_probability = seed % 2 == 0 ? 0.0 : 0.5;
    opt.latch_after_gate_probability = 0.3;
    Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    std::vector<int> lag = random_legal_lag(g, rng);
    cases.push_back({"random seed " + std::to_string(seed), std::move(n),
                     std::move(lag)});
  }
  const struct {
    const char* name;
    Netlist netlist;
  } families[] = {
      {"pipelined_adder(3,2)", pipelined_adder(3, 2)},
      {"pipelined_multiplier(3,1)", pipelined_multiplier(3, 1)},
      {"controller_datapath(2)", controller_datapath(2)},
      {"shift_register(4)", shift_register(4)},
      {"lfsr(4)", lfsr(4, {0, 3})},
      {"twisted_ring(3)", twisted_ring(3)},
      {"figure1", figure1_original()},
      {"delayed_constant", testing::delayed_constant()},
  };
  Rng rng(77);
  for (const auto& f : families) {
    const RetimeGraph g = RetimeGraph::from_netlist(f.netlist);
    cases.push_back({std::string(f.name) + " min-area", f.netlist,
                     min_area_retime(g).lag});
    cases.push_back({std::string(f.name) + " min-period", f.netlist,
                     min_period_retime_feas(g).lag});
    if (g.num_vertices() > 2) {  // shift_register has no logic to move
      cases.push_back({std::string(f.name) + " random", f.netlist,
                       random_legal_lag(g, rng)});
    }
  }
  return cases;
}

TEST(LagRecovery, RecoversThePlansLagThroughARnlRoundTrip) {
  std::size_t certified = 0, uncertified = 0, refuted = 0, moved = 0;
  for (const Case& c : sweep()) {
    SCOPED_TRACE(c.name);
    const RetimeGraph g = RetimeGraph::from_netlist(c.netlist);
    const Netlist b =
        round_trip(sequence_retiming(c.netlist, g, c.lag).retimed);
    RetimeGraph recovered_graph;
    const std::optional<std::vector<int>> lag =
        recover_lag(c.netlist, b, &recovered_graph);
    ASSERT_TRUE(lag.has_value());
    ASSERT_EQ(lag->size(), g.num_vertices());
    EXPECT_EQ(recovered_graph.num_edges(), g.num_edges());
    const std::vector<bool> connected = host_connected(g);
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
      if (connected[v]) {
        EXPECT_EQ((*lag)[v], c.lag[v]) << "vertex " << v;
      }
    }
    moved += std::any_of(lag->begin(), lag->end(), [](int r) { return r; });

    // The stage decides exactly the pairs whose recovered lag is
    // certified move by move (unless the fixpoint decides them first).
    const SafetyReport report = analyze_lag_retiming(c.netlist, g, *lag);
    const ClsEquivalenceResult r = verify_cls_equivalence(c.netlist, b);
    if (r.decided_by == EquivalenceBackend::kStatic && !is_certificate(r)) {
      continue;  // the whole-design fixpoint proved it
    }
    EXPECT_EQ(is_certificate(r), report.every_move_certified())
        << r.decided_reason;
    if (!report.every_move_certified()) {
      ++uncertified;
      refuted += !r.equivalent;  // a lagged constant can change a trace
      continue;
    }
    ++certified;
    EXPECT_EQ(r.decided_reason,
              "per-move certificate: " + report.certificate_census());
    EXPECT_EQ(r.verdict, Verdict::kProven);
    for (const EquivalenceBackend backend :
         {EquivalenceBackend::kExplicit, EquivalenceBackend::kBdd,
          EquivalenceBackend::kSat}) {
      SCOPED_TRACE(to_string(backend));
      VerifyOptions opt;
      opt.backend = backend;
      opt.allow_static_proof = false;
      opt.sat.max_depth = 12;  // SAT may stay bounded; it must not refute
      opt.sat.max_induction_depth = 6;
      const ClsEquivalenceResult e = verify_cls_equivalence(c.netlist, b, opt);
      EXPECT_TRUE(e.equivalent) << e.summary();
      EXPECT_FALSE(e.counterexample.has_value());
      if (backend == EquivalenceBackend::kExplicit &&
          pair_bfs_applies(c.netlist, b, opt.explicit_opts)) {
        EXPECT_EQ(e.verdict, Verdict::kProven) << e.summary();
      }
    }
  }
  // Both outcomes occur, and the uncertified side holds real CLS changes
  // that a stage too eager to sign would have proven.
  EXPECT_GE(certified, 250u);
  EXPECT_GE(uncertified, 5u);
  EXPECT_GE(refuted, 3u);
  EXPECT_GE(moved, 250u);
}

TEST(LagRecovery, EverySelfPairIsCertifiedWithNoMoves) {
  // What the fixpoint cannot pin (inverter_pipeline's output tracks its
  // input), the zero lag proves.
  const std::string zero_moves =
      "per-move certificate: 0 moves (0 all-X, 0 unobservable, 0 fixpoint)";
  const Netlist n = testing::inverter_pipeline();
  EXPECT_EQ(verify_cls_equivalence(n, n).decided_reason, zero_moves);
  std::size_t certified = 0;
  for (const Case& c : sweep()) {
    SCOPED_TRACE(c.name);
    const ClsEquivalenceResult r =
        verify_cls_equivalence(c.netlist, c.netlist);
    EXPECT_EQ(r.verdict, Verdict::kProven);
    EXPECT_EQ(r.decided_by, EquivalenceBackend::kStatic);
    if (is_certificate(r)) {
      EXPECT_EQ(r.decided_reason, zero_moves);
      ++certified;
    }
  }
  EXPECT_GE(certified, 300u);
}

/// `depth` latches in series from `from`, named <prefix>0, <prefix>1, ...;
/// returns the last one's port.
PortRef latch_chain(Netlist& n, PortRef from, unsigned depth,
                    const std::string& prefix) {
  for (unsigned k = 0; k < depth; ++k) {
    const NodeId l = n.add_latch(prefix + std::to_string(k));
    n.connect(from, PinRef(l, 0));
    from = PortRef(l, 0);
  }
  return from;
}

/// in -> JUNC -> `depth` latches per branch -> NOT / BUF -> out0 / out1;
/// with `shared`, one chain of `depth` latches ahead of the junction
/// instead, under other latch names.
Netlist fanout_chain(unsigned depth, bool shared) {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out0 = n.add_output("out0");
  const NodeId out1 = n.add_output("out1");
  const NodeId j = n.add_junc(2, "J");
  const NodeId inv = n.add_gate(CellKind::kNot, 1, "inv");
  const NodeId buf = n.add_gate(CellKind::kBuf, 1, "buf");
  const unsigned before = shared ? depth : 0, after = shared ? 0 : depth;
  n.connect(latch_chain(n, PortRef(in, 0), before, "S"), PinRef(j, 0));
  n.connect(latch_chain(n, PortRef(j, 0), after, "A"), PinRef(inv, 0));
  n.connect(latch_chain(n, PortRef(j, 1), after, "B"), PinRef(buf, 0));
  n.connect(inv, out0);
  n.connect(buf, out1);
  n.check_valid(true);
  return n;
}

TEST(LagRecovery, SharedLatchChainAheadOfAFanoutRecovers) {
  // Built by hand, not by the sequencer: the latches B shares ahead of
  // the junction are two backward moves across it in A.
  const Netlist a = fanout_chain(2, false);
  const Netlist b = fanout_chain(2, true);
  const std::optional<std::vector<int>> lag = recover_lag(a, b);
  ASSERT_TRUE(lag.has_value());
  const RetimeGraph g = RetimeGraph::from_netlist(a);
  EXPECT_EQ((*lag)[g.vertex_of(a.find_by_name("J"))], 2);
  EXPECT_EQ((*lag)[g.vertex_of(a.find_by_name("inv"))], 0);
  const ClsEquivalenceResult r = verify_cls_equivalence(a, b);
  EXPECT_EQ(r.verdict, Verdict::kProven);
  EXPECT_EQ(r.decided_reason,
            "per-move certificate: 2 moves (2 all-X, 0 unobservable, 0 "
            "fixpoint)");
  // And the other way round: two forward moves.
  EXPECT_TRUE(is_certificate(verify_cls_equivalence(b, a)));
}

/// What each decline case changes in the mux/table design below.
struct Variant {
  bool rename_gate = false;
  bool swap_mux_pins = false;
  bool swap_table_pins = false;
  bool swap_table_ports = false;
  bool gate_is_buf = false;
  bool other_table = false;
  bool swap_inputs = false;
};

/// Inputs a, b, c, s. T = table(a, b) -> (a AND NOT b, a XOR b);
/// G = NOT c; M = MUX(s, T.0 -> L0, G -> L1); X = XOR(T.1, M) -> L2 -> out.
Netlist mux_table(const Variant& v = {}) {
  Netlist n;
  NodeId a, b;
  if (v.swap_inputs) {
    b = n.add_input("b");
    a = n.add_input("a");
  } else {
    a = n.add_input("a");
    b = n.add_input("b");
  }
  const NodeId c = n.add_input("c");
  const NodeId s = n.add_input("s");
  const NodeId out = n.add_output("out");
  TruthTable f(2, 2);
  for (std::uint64_t x = 0; x < 4; ++x) {
    const bool xa = x & 1, xb = (x >> 1) & 1;
    const bool f0 = v.other_table ? (xa || xb) : (xa && !xb);
    f.set_row(x, (f0 ? 1u : 0u) | ((xa != xb) ? 2u : 0u));
  }
  const NodeId t = n.add_table_cell(n.add_table(f), "T");
  const NodeId g =
      n.add_gate(v.gate_is_buf ? CellKind::kBuf : CellKind::kNot, 1,
                 v.rename_gate ? "G2" : "G");
  const NodeId m = n.add_gate(CellKind::kMux, 0, "M");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "X");
  n.connect(a, t, v.swap_table_pins ? 1 : 0);
  n.connect(b, t, v.swap_table_pins ? 0 : 1);
  n.connect(c, g);
  n.connect(s, m, 0);
  const std::uint32_t to_mux = v.swap_table_ports ? 1 : 0;
  n.connect(latch_chain(n, PortRef(t, to_mux), 1, "L0"),
            PinRef(m, v.swap_mux_pins ? 2 : 1));
  n.connect(latch_chain(n, PortRef(g, 0), 1, "L1"),
            PinRef(m, v.swap_mux_pins ? 1 : 2));
  n.connect(PortRef(t, 1 - to_mux), PinRef(x, 0));
  n.connect(PortRef(m, 0), PinRef(x, 1));
  n.connect(latch_chain(n, PortRef(x, 0), 1, "L2"), PinRef(out, 0));
  n.check_valid(true);
  return n;
}

/// in -> AND(in, loop) -> JUNC -> out, and back to the AND through
/// `latches` latches: the loop's weight is its latch count.
Netlist and_loop(unsigned latches) {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId g = n.add_gate(CellKind::kAnd, 2, "g");
  const NodeId j = n.add_junc(2, "J");
  n.connect(in, g, 0);
  n.connect(g, j);
  n.connect(PortRef(j, 0), PinRef(out, 0));
  n.connect(latch_chain(n, PortRef(j, 1), latches, "L"), PinRef(g, 1));
  n.check_valid(true);
  return n;
}

/// Recovery declines, and the verdict is the one the engines give with no
/// certificate stage at all.
void expect_declined(const Netlist& a, const Netlist& b) {
  EXPECT_FALSE(recover_lag(a, b).has_value());
  for (const EquivalenceBackend backend :
       {EquivalenceBackend::kExplicit, EquivalenceBackend::kStatic}) {
    VerifyOptions opt;
    opt.backend = backend;
    const ClsEquivalenceResult with = verify_cls_equivalence(a, b, opt);
    const ClsEquivalenceResult without =
        verify_cls_equivalence_after_certificate(a, b, opt);
    EXPECT_EQ(with.verdict, without.verdict);
    EXPECT_EQ(with.equivalent, without.equivalent);
    EXPECT_EQ(with.decided_by, without.decided_by);
    EXPECT_EQ(with.decided_reason, without.decided_reason);
    EXPECT_FALSE(is_certificate(with));
  }
}

TEST(LagRecovery, TheReferenceDesignsAreCertified) {
  // The decline cases below differ from these in one thing each.
  EXPECT_TRUE(is_certificate(verify_cls_equivalence(mux_table(), mux_table())));
  EXPECT_TRUE(is_certificate(verify_cls_equivalence(and_loop(1), and_loop(1))));
}

TEST(LagRecovery, DeclinesARenamedCell) {
  Variant v;
  v.rename_gate = true;
  expect_declined(mux_table(), mux_table(v));
}

TEST(LagRecovery, DeclinesSwappedMuxOrTablePins) {
  Variant mux, table;
  mux.swap_mux_pins = true;
  table.swap_table_pins = true;
  expect_declined(mux_table(), mux_table(mux));
  expect_declined(mux_table(), mux_table(table));
}

TEST(LagRecovery, DeclinesSwappedTablePorts) {
  // Same source cell, other output port: only the port comparison sees it.
  Variant v;
  v.swap_table_ports = true;
  expect_declined(mux_table(), mux_table(v));
}

TEST(LagRecovery, DeclinesAChangedCellKindOrTable) {
  Variant kind, table;
  kind.gate_is_buf = true;
  table.other_table = true;
  expect_declined(mux_table(), mux_table(kind));
  expect_declined(mux_table(), mux_table(table));
}

TEST(LagRecovery, DeclinesSwappedPrimaryInputOrder) {
  Variant v;
  v.swap_inputs = true;
  expect_declined(mux_table(), mux_table(v));
}

TEST(LagRecovery, DeclinesALatchNoLagExplains) {
  // One latch more on the loop changes its weight, which no retiming does.
  expect_declined(and_loop(1), and_loop(2));
  expect_declined(and_loop(2), and_loop(1));
}

TEST(LagRecovery, DeclinesEveryInjectedFault) {
  const Netlist a = mux_table();
  const RetimeGraph g = RetimeGraph::from_netlist(a);
  const Netlist retimed =
      sequence_retiming(a, g, min_period_retime_feas(g).lag).retimed;
  const std::vector<Fault> faults = enumerate_faults(retimed);
  ASSERT_FALSE(faults.empty());
  for (const Fault& f : faults) {
    SCOPED_TRACE(describe(retimed, f));
    expect_declined(a, inject_fault(retimed, f));
  }
}

TEST(LagRecovery, DeclinesANonJunctionNormalDesign) {
  // in fans out to two gates with no junction: the sequencer's
  // precondition fails, even against itself.
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId g0 = n.add_gate(CellKind::kNot, 1, "g0");
  const NodeId g1 = n.add_gate(CellKind::kBuf, 1, "g1");
  n.connect(in, g0);
  n.connect(in, g1);
  n.connect(latch_chain(n, PortRef(g0, 0), 1, "L"),
            PinRef(n.add_output("o0"), 0));
  n.connect(g1, n.add_output("o1"));
  ASSERT_FALSE(n.is_junction_normal());
  expect_declined(n, n);
}

TEST(LagRecovery, DeclinesADesignTheGraphBuilderRejects) {
  // B's output hangs off a latch-only ring: its retiming graph has no
  // edge for that pin, which is a decline, not an error or a hang.
  Netlist a;
  const NodeId in = a.add_input("in");
  a.connect(in, a.add_gate(CellKind::kBuf, 1, "g"));
  a.connect(a.find_by_name("g"), a.add_output("out"));
  Netlist b;
  const NodeId b_in = b.add_input("in");
  const NodeId b_out = b.add_output("out");
  b.connect(b_in, b.add_gate(CellKind::kBuf, 1, "g"));
  const NodeId l1 = b.add_latch("L1");
  const NodeId l2 = b.add_latch("L2");
  b.connect(l1, l2);
  b.connect(l2, l1);
  b.connect(PortRef(l2, 0), PinRef(b_out, 0));
  EXPECT_THROW(RetimeGraph::from_netlist(b), InvalidArgument);
  EXPECT_FALSE(recover_lag(a, b).has_value());
}

}  // namespace
}  // namespace rtv
