// Tests for the ternary dataflow fixpoint engine (analysis/dataflow.hpp):
// lattice helpers, soundness against exhaustive ternary reachability and
// the symbolic machine, the RTV3xx semantic lint passes that read the
// fixpoint, static retiming-safety certification (RTV305) against real
// engine runs, the static equivalence fast path, and the deterministic
// rendering contract of the lint report.

#include <algorithm>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "bdd/symbolic.hpp"
#include "core/safety.hpp"
#include "core/verify.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "retime/moves.hpp"
#include "serve/jobs.hpp"
#include "sim/cls_sim.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;
using testing::toggle_circuit;

std::size_t count_code(const DiagnosticReport& report, DiagCode code) {
  return static_cast<std::size_t>(std::count_if(
      report.diagnostics().begin(), report.diagnostics().end(),
      [&](const Diagnostic& d) { return d.code == code; }));
}

// ---- lattice helpers -------------------------------------------------------

TEST(TritSets, HelpersAndRendering) {
  EXPECT_EQ(to_string_trit_set(kTritSetEmpty), "{}");
  EXPECT_EQ(to_string_trit_set(kTritSetTop), "{0,1,X}");
  EXPECT_EQ(to_string_trit_set(trit_set_of(Trit::kX)), "{X}");
  EXPECT_TRUE(trit_set_is_singleton(trit_set_of(Trit::kOne)));
  EXPECT_FALSE(trit_set_is_singleton(kTritSetEmpty));
  EXPECT_FALSE(trit_set_is_singleton(kTritSetTop));
  EXPECT_EQ(trit_set_singleton(trit_set_of(Trit::kZero)), Trit::kZero);
  EXPECT_EQ(trit_set_singleton(kTritSetTop), std::nullopt);
  EXPECT_TRUE(trit_set_contains(kTritSetTop, Trit::kX));
  EXPECT_FALSE(trit_set_contains(trit_set_of(Trit::kZero), Trit::kOne));
}

// ---- soundness vs exhaustive ternary reachability --------------------------

std::vector<Trits> all_input_vectors(unsigned width) {
  std::uint64_t count = 1;
  for (unsigned i = 0; i < width; ++i) count *= 3;
  std::vector<Trits> vectors;
  vectors.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t code = 0; code < count; ++code) {
    vectors.push_back(unpack_trits(code, width));
  }
  return vectors;
}

/// Exhaustive check on one circuit: BFS every ternary latch state reachable
/// from all-X under every ternary input vector and require the fixpoint set
/// of every latch port / primary output to contain every value actually
/// observed. Returns the number of (state, input) evaluations performed.
std::size_t check_soundness_exhaustively(const Netlist& n,
                                         const DataflowResult& df) {
  ClsSimulator sim(n);
  const unsigned num_latches = sim.num_latches();
  const std::vector<Trits> inputs = all_input_vectors(sim.num_inputs());
  const std::vector<NodeId>& latches = n.latches();
  const std::vector<NodeId>& outputs = n.primary_outputs();

  std::set<std::uint64_t> visited;
  std::vector<Trits> frontier{Trits(num_latches, Trit::kX)};
  visited.insert(pack_trits(frontier.front()));
  std::size_t evals = 0;
  Trits out_values, next_state;
  while (!frontier.empty()) {
    const Trits state = frontier.back();
    frontier.pop_back();
    for (unsigned i = 0; i < num_latches; ++i) {
      const TritSet set = df.set_for(PortRef(latches[i], 0));
      EXPECT_TRUE(trit_set_contains(set, state[i]))
          << "latch '" << n.name(latches[i]) << "' observed "
          << to_char(state[i]) << " outside fixpoint set "
          << to_string_trit_set(set);
    }
    for (const Trits& in : inputs) {
      sim.eval(state, in, out_values, next_state);
      ++evals;
      for (std::size_t j = 0; j < outputs.size(); ++j) {
        const TritSet set = df.output_set(outputs[j]);
        EXPECT_TRUE(trit_set_contains(set, out_values[j]))
            << "output '" << n.name(outputs[j]) << "' observed "
            << to_char(out_values[j]) << " outside fixpoint set "
            << to_string_trit_set(set);
      }
      if (visited.insert(pack_trits(next_state)).second) {
        frontier.push_back(next_state);
      }
    }
  }
  return evals;
}

TEST(DataflowSoundness, FixpointCoversExhaustiveTernaryReachability) {
  // >= 100 random circuits, kept tiny so 3^L ternary-state reachability is
  // exhaustive. Half the trials include table cells so the product
  // enumeration (and its widening cap) is part of what is being checked.
  Rng rng(4242);
  int circuits_checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + trial % 3;
    opt.num_outputs = 1 + trial % 2;
    opt.num_latches = 1 + trial % 4;
    opt.num_gates = 6 + trial % 9;
    opt.max_fanin = 3;
    opt.table_probability = (trial % 2) != 0 ? 0.3 : 0.0;
    opt.latch_after_gate_probability = 0.3;
    const Netlist n = random_netlist(opt, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const DataflowResult df = run_dataflow(n);
    ASSERT_GT(check_soundness_exhaustively(n, df), 0u);
    ++circuits_checked;
    if (::testing::Test::HasFailure()) break;  // one witness is enough
  }
  EXPECT_GE(circuits_checked, 100);
}

TEST(DataflowSoundness, WidenedTableCellsStaySound) {
  // A product cap of 1 forces every table cell to the ⊤-widening fallback;
  // the result must still be sound and must report the fallbacks.
  Rng rng(77);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 3;
  opt.num_gates = 10;
  opt.table_probability = 0.8;
  const Netlist n = random_netlist(opt, rng);

  DataflowOptions narrow;
  narrow.table_product_cap = 1;
  const DataflowResult df = run_dataflow(n, narrow);
  EXPECT_GT(df.stats().table_fallbacks, 0u);
  check_soundness_exhaustively(n, df);

  // The widened sets contain the precise ones.
  const DataflowResult precise = run_dataflow(n);
  EXPECT_EQ(precise.stats().table_fallbacks, 0u);
  for (const NodeId id : n.live_nodes()) {
    for (std::uint32_t p = 0; p < n.num_ports(id); ++p) {
      const TritSet wide = df.set_for(PortRef(id, p));
      const TritSet tight = precise.set_for(PortRef(id, p));
      EXPECT_EQ(wide | tight, wide)
          << n.name(id) << " port " << p << ": widened "
          << to_string_trit_set(wide) << " does not contain "
          << to_string_trit_set(tight);
    }
  }
}

// ---- soundness vs the symbolic machine -------------------------------------

/// Random circuit with constant leaves mixed in, so definite singleton
/// fixpoint sets actually occur (pure random logic almost never produces
/// them). Every unconsumed port is capped with a primary output.
Netlist random_const_heavy(Rng& rng) {
  Netlist n;
  std::vector<PortRef> pool;
  pool.emplace_back(n.add_input("x"), 0);
  pool.emplace_back(n.add_const(false, "c0"), 0);
  pool.emplace_back(n.add_const(true, "c1"), 0);
  std::vector<std::size_t> consumed(pool.size(), 0);
  auto pick = [&]() {
    const std::size_t i = static_cast<std::size_t>(rng.below(pool.size()));
    consumed[i]++;
    return pool[i];
  };
  const CellKind kinds[] = {CellKind::kAnd,  CellKind::kOr,  CellKind::kXor,
                            CellKind::kNand, CellKind::kNor, CellKind::kNot};
  for (int i = 0; i < 10; ++i) {
    const CellKind kind = kinds[rng.below(6)];
    const unsigned arity = kind == CellKind::kNot ? 1 : 2;
    const NodeId g = n.add_gate(kind, kind == CellKind::kNot ? 0 : arity,
                                indexed_name("g", i));
    for (unsigned pin = 0; pin < arity; ++pin) {
      n.connect(pick(), PinRef(g, pin));
    }
    pool.emplace_back(g, 0);
    consumed.push_back(0);
  }
  for (int i = 0; i < 2; ++i) {
    const NodeId latch = n.add_latch(indexed_name("L", i));
    n.connect(pick(), PinRef(latch, 0));
    pool.emplace_back(latch, 0);
    consumed.push_back(0);
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (consumed[i] != 0) continue;
    const NodeId out = n.add_output(indexed_name("o", i));
    n.connect(pool[i], PinRef(out, 0));
  }
  n.junctionize();
  n.check_valid(true);
  return n;
}

TEST(DataflowSoundness, DefiniteSingletonsAreConstantInTheSymbolicMachine) {
  // A definite singleton fixpoint set claims the signal is that constant on
  // every cycle of every run from *any* power-up state (binary runs refine
  // ternary ones). Over all 2^L states and inputs that is exactly "the
  // symbolic cone BDD is the constant": cross-check every claim.
  Rng rng(99);
  std::size_t definite_claims = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Netlist n = random_const_heavy(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const DataflowResult df = run_dataflow(n);
    SymbolicMachine machine(n);
    const std::vector<NodeId>& outputs = n.primary_outputs();
    for (unsigned j = 0; j < outputs.size(); ++j) {
      const std::optional<Trit> v = trit_set_singleton(df.output_set(outputs[j]));
      if (!v || *v == Trit::kX) continue;
      ++definite_claims;
      EXPECT_EQ(machine.output_function(j),
                *v == Trit::kOne ? BddManager::kTrue : BddManager::kFalse)
          << "output '" << n.name(outputs[j]) << "' claimed constant";
    }
    const std::vector<NodeId>& latches = n.latches();
    for (unsigned i = 0; i < latches.size(); ++i) {
      const std::optional<Trit> v =
          trit_set_singleton(df.pin_set(PinRef(latches[i], 0)));
      if (!v || *v == Trit::kX) continue;
      ++definite_claims;
      EXPECT_EQ(machine.next_function(i),
                *v == Trit::kOne ? BddManager::kTrue : BddManager::kFalse)
          << "latch '" << n.name(latches[i]) << "' driver claimed constant";
    }
  }
  // The generator must make the cross-check non-vacuous.
  EXPECT_GE(definite_claims, 10u);
}

// ---- RTV3xx passes ---------------------------------------------------------

TEST(SemanticLint, Rtv301FlagsExactlyTheStuckLatches) {
  // toggle's latch t satisfies next = t XOR in: from X it stays X forever.
  const LintResult result = run_lint(toggle_circuit());
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kLatchNeverInitializes),
            1u);
  // inverter_pipeline's latches load definite values from the input.
  EXPECT_TRUE(run_lint(inverter_pipeline()).clean());
}

TEST(SemanticLint, Rtv302FlagsStaticallyConstantSignals) {
  Netlist n;
  const NodeId x = n.add_input("x");
  const NodeId c1 = n.add_const(true, "one");
  const NodeId c0 = n.add_const(false, "zero");
  const NodeId o1 = n.add_output("o1");
  const NodeId o2 = n.add_output("o2");
  const NodeId org = n.add_gate(CellKind::kOr, 2, "or_one");
  const NodeId andg = n.add_gate(CellKind::kAnd, 2, "and_zero");
  n.connect(PortRef(c1, 0), PinRef(org, 0));
  n.connect(PortRef(x, 0), PinRef(org, 1));
  n.connect(PortRef(c0, 0), PinRef(andg, 0));
  n.connect(PortRef(x, 0), PinRef(andg, 1));
  n.connect(PortRef(org, 0), PinRef(o1, 0));
  n.connect(PortRef(andg, 0), PinRef(o2, 0));
  n.junctionize();
  n.check_valid(true);

  const LintResult result = run_lint(n);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kStaticConstant), 2u);
  const std::string text = render_text(result);
  EXPECT_NE(text.find("'or_one'"), std::string::npos) << text;
  EXPECT_NE(text.find("statically constant 1"), std::string::npos) << text;
  EXPECT_NE(text.find("'and_zero'"), std::string::npos) << text;
  EXPECT_NE(text.find("statically constant 0"), std::string::npos) << text;
  // The declared constants themselves are not re-reported.
  EXPECT_EQ(result.diagnostics.size(), 2u) << text;
}

TEST(SemanticLint, Rtv303GroupsDeadCellsIntoOneCone) {
  // Main path x -> inv -> out, plus a closed dead loop a <-> d that never
  // reaches the output: one cone of two cells, anchored at 'a'.
  Netlist n;
  const NodeId x = n.add_input("x");
  const NodeId o = n.add_output("o");
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "inv");
  const NodeId a = n.add_gate(CellKind::kAnd, 2, "a");
  const NodeId d = n.add_latch("d");
  n.connect(PortRef(x, 0), PinRef(inv, 0));
  n.connect(PortRef(inv, 0), PinRef(o, 0));
  n.connect(PortRef(x, 0), PinRef(a, 0));
  n.connect(PortRef(a, 0), PinRef(d, 0));
  n.connect(PortRef(d, 0), PinRef(a, 1));

  const LintResult result = run_lint(n);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kDeadLogicCone), 1u);
  const std::string text = render_text(result);
  EXPECT_NE(text.find("dead logic cone of 2 cell(s): 'a', 'd'"),
            std::string::npos)
      << text;
}

TEST(SemanticLint, Rtv304NamesTheCombinationalLoopMembers) {
  Netlist n;
  const NodeId o = n.add_output("o");
  const NodeId g1 = n.add_gate(CellKind::kNot, 0, "g1");
  const NodeId g2 = n.add_gate(CellKind::kNot, 0, "g2");
  n.connect(PortRef(g1, 0), PinRef(g2, 0));
  n.connect(PortRef(g2, 0), PinRef(g1, 0));
  n.connect(PortRef(g2, 0), PinRef(o, 0));

  const LintResult result = run_lint(n);
  // The structural combinational-cycle error still fires; RTV304 is the
  // grouped report naming the members, emitted without the fixpoint.
  EXPECT_TRUE(result.has_errors());
  EXPECT_FALSE(result.dataflow_stats.has_value());
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kCombinationalScc), 1u);
  const std::string text = render_text(result);
  EXPECT_NE(text.find("feedback group of 2 cell(s): 'g1', 'g2'"),
            std::string::npos)
      << text;
}

TEST(SemanticLint, Rtv305CertifiesTheFigure1ForwardMove) {
  // Forward across junction J1 is the paper's unsafe-class move (RTV201),
  // but junctions preserve all-X, so Theorem 5.1 certifies it statically.
  const Netlist d = figure1_original();
  const std::vector<RetimingMove> plan{
      {d.find_by_name("J1"), MoveDirection::kForward}};
  const LintResult result = run_lint(d, plan);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kUnsafeForwardMove), 1u);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kStaticallySafeMove), 1u);
  const std::string text = render_text(result);
  EXPECT_NE(text.find("statically certified safe"), std::string::npos) << text;
  EXPECT_NE(text.find("preserves all-X"), std::string::npos) << text;
}

TEST(SemanticLint, SafeClassPlansGetNoCertificateNoise) {
  // Backward moves preserve safe replacement by class: no RTV305 notes.
  const Netlist c = figure1_retimed();
  const std::vector<RetimingMove> plan{
      {c.find_by_name("J1"), MoveDirection::kBackward}};
  const LintResult result = run_lint(c, plan);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kStaticallySafeMove), 0u);
}

// ---- RTV305 certificates agree with engine verification --------------------

TEST(Certification, CertifiedMovesPassEngineVerification) {
  // Every certified move, replayed at its own plan position, must be
  // confirmed equivalent by a real engine run (static proof disabled so the
  // engine actually decides).
  Rng rng(1337);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 12;
  opt.table_probability = 0.2;
  opt.latch_after_gate_probability = 0.3;
  std::size_t certified_checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    std::vector<int> lag(g.num_vertices(), 0);
    for (int attempt = 0; attempt < 40; ++attempt) {
      std::vector<int> probe = lag;
      const std::uint32_t v =
          2 + static_cast<std::uint32_t>(rng.below(g.num_vertices() - 2));
      probe[v] += rng.coin() ? 1 : -1;
      if (g.legal_retiming(probe)) lag = probe;
    }
    SequencedRetiming seq;
    const std::vector<MoveCertificate> certificates =
        analyze_lag_retiming(n, g, lag, &seq).move_certificates;
    if (seq.moves.empty()) continue;
    ASSERT_EQ(certificates.size(), seq.moves.size());
    Netlist work = n;
    for (std::size_t i = 0; i < seq.moves.size(); ++i) {
      const Netlist before = work;
      apply_move(work, seq.moves[i]);
      if (!certificates[i].certified) continue;
      VerifyOptions verify;
      verify.backend = EquivalenceBackend::kExplicit;
      verify.allow_static_proof = false;
      const ClsEquivalenceResult r =
          verify_cls_equivalence(before, work, verify);
      EXPECT_TRUE(r.equivalent)
          << "certified move " << i << " (" << certificates[i].reason
          << ") refuted by the explicit engine: " << r.summary();
      ++certified_checked;
    }
  }
  EXPECT_GE(certified_checked, 5u);
}

// ---- static equivalence fast path ------------------------------------------

TEST(StaticProof, DecidesStuckAtXDesignsBeforeAnyEngine) {
  // toggle's only output can never leave X, in both copies: the fixpoint
  // proves equivalence outright and stamps decided_by = static.
  const Netlist n = toggle_circuit();
  const ClsEquivalenceResult r = verify_cls_equivalence(n, n, VerifyOptions{});
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.verdict, Verdict::kProven);
  EXPECT_EQ(r.decided_by, EquivalenceBackend::kStatic);
  EXPECT_NE(r.decided_reason.find("singleton"), std::string::npos)
      << r.decided_reason;

  // The engines agree with the static verdict.
  VerifyOptions engine;
  engine.allow_static_proof = false;
  const ClsEquivalenceResult e = verify_cls_equivalence(n, n, engine);
  EXPECT_TRUE(e.equivalent);
  EXPECT_NE(e.decided_by, EquivalenceBackend::kStatic);
}

TEST(StaticProof, ExplicitStaticBackendReportsInconclusiveHonestly) {
  // inverter_pipeline's output set is ⊤ (it tracks the input), so the
  // fixpoint cannot decide, and the buffered copy has one cell more, so no
  // recovered lag carries a per-move certificate; the dedicated static
  // backend must say so instead of inventing a verdict.
  const Netlist n = inverter_pipeline();
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kStatic;
  const ClsEquivalenceResult r =
      verify_cls_equivalence(n, testing::with_output_buffer(n), opt);
  // kExhausted contract: `equivalent` means "no difference observed", and
  // the summary reads undecided, never equivalent or distinguishable.
  EXPECT_TRUE(r.equivalent);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_EQ(r.verdict, Verdict::kExhausted);
  EXPECT_EQ(r.decided_by, EquivalenceBackend::kStatic);
  EXPECT_NE(r.decided_reason.find("inconclusive"), std::string::npos)
      << r.decided_reason;
  const std::string summary = r.summary();
  EXPECT_EQ(summary.rfind("CLS-UNDECIDED (inconclusive", 0), 0u) << summary;
  EXPECT_EQ(summary.find("DISTINGUISHABLE"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("CLS-equivalent"), std::string::npos) << summary;
}

TEST(StaticProof, SafetyReportCarriesTheCertificate) {
  // The Figure 1 forward retiming has an unsafe-class move; the ternary
  // fixpoint certifies it, and the safety report says so.
  const Netlist d = figure1_original();
  const std::vector<RetimingMove> plan{
      {d.find_by_name("J1"), MoveDirection::kForward}};
  const SafetyReport report = analyze_move_sequence(d, plan);
  EXPECT_FALSE(report.safe_replacement_guaranteed);
  EXPECT_TRUE(report.cls_certified_safe);
  EXPECT_NE(report.summary().find("CLS-certified"), std::string::npos)
      << report.summary();
}

// ---- deterministic rendering -----------------------------------------------

TEST(Rendering, DiagnosticsAreSortedByCodeThenLocation) {
  // A circuit provoking diagnostics from several passes (RTV110 unreachable
  // warnings, RTV301, RTV303) plus a plan (RTV201/RTV205/RTV305): the
  // rendered order must be non-decreasing in code regardless of which pass
  // emitted first.
  Netlist n = figure1_original();
  const NodeId dead_latch = n.add_latch("dead1");
  const NodeId dead_gate = n.add_gate(CellKind::kNot, 0, "dead2");
  n.connect(PortRef(dead_latch, 0), PinRef(dead_gate, 0));
  n.connect(PortRef(dead_gate, 0), PinRef(dead_latch, 0));
  const std::vector<RetimingMove> plan{
      {n.find_by_name("J1"), MoveDirection::kForward}};

  const LintResult result = run_lint(n, plan);
  ASSERT_GE(result.diagnostics.size(), 4u);
  const std::vector<Diagnostic>& diags = result.diagnostics.diagnostics();
  for (std::size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(static_cast<int>(diags[i - 1].code),
              static_cast<int>(diags[i].code))
        << "diagnostics out of canonical order at index " << i;
    if (diags[i - 1].code == diags[i].code) {
      EXPECT_LE(diags[i - 1].node.value, diags[i].node.value);
    }
  }
}

TEST(Rendering, TextAndJsonAreByteStableAcrossRuns) {
  Netlist n = figure1_original();
  const std::vector<RetimingMove> plan{
      {n.find_by_name("J1"), MoveDirection::kForward}};
  const LintResult first = run_lint(n, plan);
  const LintResult second = run_lint(n, plan);
  EXPECT_EQ(render_text(first), render_text(second));
  // The JSON form is the lint job's result (serve/jobs.hpp).
  JsonValue::Object options;
  options.emplace_back("plan", JsonValue(plan_to_json(n, plan)));
  serve::JobDesigns designs;
  designs.a = &n;
  const auto json = [&] {
    return write_json(
        serve::run_job(serve::JobType::kLint, JsonValue(options), designs, {})
            .result);
  };
  EXPECT_EQ(json(), json());

  // And the documented shape of the stats line.
  const std::string text = render_text(first);
  EXPECT_NE(text.find("dataflow: "), std::string::npos) << text;
  EXPECT_NE(text.find("iteration(s)"), std::string::npos) << text;
}

}  // namespace
}  // namespace rtv
