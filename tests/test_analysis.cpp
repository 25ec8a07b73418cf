// Tests for the static-analysis subsystem: structural lint diagnostics,
// the plan analyzer (paper Section 4 replayed without mutating the
// design), the JSON plan/report formats, and the JSON parser itself.

#include <algorithm>
#include <gtest/gtest.h>
#include <stdexcept>

#include "analysis/lint.hpp"
#include "core/flow.hpp"
#include "gen/paper_circuits.hpp"
#include "io/json.hpp"
#include "serve/jobs.hpp"
#include "test_helpers.hpp"

namespace rtv {
namespace {

using testing::and2_circuit;
using testing::inverter_pipeline;
using testing::toggle_circuit;

std::size_t count_code(const DiagnosticReport& report, DiagCode code) {
  return static_cast<std::size_t>(std::count_if(
      report.diagnostics().begin(), report.diagnostics().end(),
      [&](const Diagnostic& d) { return d.code == code; }));
}

// ---- structural lint -------------------------------------------------------

TEST(StructuralLint, CleanCircuitsProduceEmptyReports) {
  for (const Netlist& n : {inverter_pipeline(), and2_circuit()}) {
    const LintResult result = run_lint(n);
    EXPECT_TRUE(result.clean()) << render_text(result);
  }
}

TEST(StructuralLint, StuckAtXLatchesAreFlaggedOnlyBySemanticLint) {
  // toggle and Figure 1 are structurally sound, but their latches can never
  // leave the all-X power-up state: semantic lint warns RTV301; turning the
  // semantic stage off restores the purely structural (clean) verdict.
  for (const Netlist& n : {toggle_circuit(), figure1_original()}) {
    const LintResult result = run_lint(n);
    EXPECT_FALSE(result.clean()) << render_text(result);
    EXPECT_FALSE(result.has_errors()) << render_text(result);
    EXPECT_GE(count_code(result.diagnostics, DiagCode::kLatchNeverInitializes),
              1u);
    ASSERT_TRUE(result.dataflow_stats.has_value());
    EXPECT_GT(result.dataflow_stats->num_ports, 0u);

    LintOptions structural_only;
    structural_only.semantic = false;
    const LintResult off = run_lint(n, structural_only);
    EXPECT_TRUE(off.clean()) << render_text(off);
    EXPECT_FALSE(off.dataflow_stats.has_value());
  }
}

TEST(StructuralLint, AccumulatesEveryViolationNotJustTheFirst) {
  // Two separate defects: an unconnected AND pin and a dangling NOT.
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId a = n.add_gate(CellKind::kAnd, 2, "a");
  n.add_gate(CellKind::kNot, 0, "b");  // nothing connected at all
  n.connect(PortRef(in, 0), PinRef(a, 0));
  n.connect(PortRef(a, 0), PinRef(out, 0));

  const auto violations = n.structural_violations();
  EXPECT_GE(violations.size(), 2u);  // a.1 and b.0 both unconnected

  const LintResult result = run_lint(n);
  EXPECT_GE(count_code(result.diagnostics, DiagCode::kUnconnectedPin), 2u);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kDanglingPort), 1u);
  EXPECT_TRUE(result.has_errors());
}

TEST(StructuralLint, CheckValidStillThrowsOnFirstViolation) {
  Netlist n;
  const NodeId a = n.add_gate(CellKind::kAnd, 2, "a");
  (void)a;
  EXPECT_THROW(n.check_valid(), InvalidArgument);
}

TEST(StructuralLint, ConnectRefusesASecondDriverSoRtv102IsDefenseInDepth) {
  // The public API cannot create a multi-driven pin (connect refuses), so
  // RTV102 only fires on corrupted in-memory structures; what we can pin
  // down here is the guard itself.
  Netlist n;
  const NodeId i0 = n.add_input("i0");
  const NodeId i1 = n.add_input("i1");
  const NodeId out = n.add_output("out");
  n.connect(PortRef(i0, 0), PinRef(out, 0));
  EXPECT_THROW(n.connect(PortRef(i1, 0), PinRef(out, 0)), InvalidArgument);
  EXPECT_TRUE(run_lint(n).clean());
}

TEST(StructuralLint, CombinationalCycleIsReported) {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId a = n.add_gate(CellKind::kAnd, 2, "a");
  const NodeId b = n.add_gate(CellKind::kAnd, 2, "b");
  n.connect(PortRef(in, 0), PinRef(a, 0));
  n.connect(PortRef(b, 0), PinRef(a, 1));
  n.connect(PortRef(a, 0), PinRef(b, 0));
  n.connect(PortRef(a, 0), PinRef(b, 1));
  n.connect(PortRef(b, 0), PinRef(out, 0));

  const LintResult result = run_lint(n);
  EXPECT_GE(count_code(result.diagnostics, DiagCode::kCombinationalCycle), 1u);
  // The same netlist is also not junction-normal (a.0 and b.0 fan out).
  EXPECT_GE(count_code(result.diagnostics, DiagCode::kImplicitFanout), 1u);
}

TEST(StructuralLint, ImplicitFanoutSeverityFollowsOptions) {
  Netlist n;  // un-junctionized toggle: latch port fans out twice
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(PortRef(t, 0), PinRef(x, 0));
  n.connect(PortRef(in, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(t, 0));
  n.connect(PortRef(t, 0), PinRef(out, 0));

  const LintResult lax = run_lint(n);
  EXPECT_FALSE(lax.has_errors());
  EXPECT_EQ(count_code(lax.diagnostics, DiagCode::kImplicitFanout), 1u);

  LintOptions strict;
  strict.require_junction_normal = true;
  EXPECT_TRUE(run_lint(n, strict).has_errors());
}

TEST(StructuralLint, UnreachableCellWarnsAndCanBeDisabled) {
  Netlist n = and2_circuit();
  const NodeId orphan = n.add_gate(CellKind::kNot, 0, "orphan");
  n.connect(PortRef(n.find_by_name("a"), 0), PinRef(orphan, 0));
  // orphan's port dangles AND it cannot reach a primary output.
  const LintResult result = run_lint(n);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kUnreachableCell), 1u);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kDanglingPort), 1u);

  LintOptions quiet;
  quiet.warn_unreachable = false;
  EXPECT_EQ(count_code(run_lint(n, quiet).diagnostics,
                       DiagCode::kUnreachableCell),
            0u);
}

// ---- plan analysis ---------------------------------------------------------

TEST(PlanAnalysis, Figure1ForwardAcrossJ1IsTheOneUnsafeMove) {
  const Netlist d = figure1_original();
  const std::vector<RetimingMove> plan{
      {d.find_by_name("J1"), MoveDirection::kForward}};

  const LintResult result = run_lint(d, plan);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_TRUE(result.plan->analyzable);
  EXPECT_TRUE(result.plan->feasible);
  EXPECT_EQ(result.plan->k(), 1u);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kUnsafeForwardMove), 1u);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kSettleCertificate), 1u);
  EXPECT_FALSE(result.has_errors());
}

TEST(PlanAnalysis, Figure2BackwardAcrossJ1IsClean) {
  const Netlist c = figure1_retimed();
  const std::vector<RetimingMove> plan{
      {c.find_by_name("J1"), MoveDirection::kBackward}};

  const LintResult result = run_lint(c, plan);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_TRUE(result.plan->feasible);
  EXPECT_EQ(result.plan->k(), 0u);
  EXPECT_TRUE(result.plan->stats.preserves_safe_replacement());
  // The plan itself raises nothing; the only diagnostics are the semantic
  // RTV301s on Figure 1's stuck-at-X latches.
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kUnsafeForwardMove), 0u);
  EXPECT_EQ(result.diagnostics.size(),
            count_code(result.diagnostics, DiagCode::kLatchNeverInitializes))
      << render_text(result);
}

TEST(PlanAnalysis, JustifiableForwardMoveIsClean) {
  // NOT is justifiable: forward across it preserves safe replacement.
  const Netlist n = inverter_pipeline();
  const std::vector<RetimingMove> plan{
      {n.find_by_name("inv"), MoveDirection::kForward}};
  const LintResult result = run_lint(n, plan);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_TRUE(result.plan->feasible);
  EXPECT_EQ(result.plan->k(), 0u);
  EXPECT_TRUE(result.clean()) << render_text(result);
}

TEST(PlanAnalysis, DisabledMoveIsReportedNotApplied) {
  const Netlist n = toggle_circuit();
  // x has no latch on its 'in' pin: a forward move is not enabled.
  const std::vector<RetimingMove> plan{
      {n.find_by_name("x"), MoveDirection::kForward}};
  const LintResult result = run_lint(n, plan);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_TRUE(result.plan->analyzable);
  EXPECT_FALSE(result.plan->feasible);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kMoveNotEnabled), 1u);
  EXPECT_TRUE(result.has_errors());
}

TEST(PlanAnalysis, BadElementsAreReported) {
  const Netlist n = toggle_circuit();
  const std::vector<RetimingMove> plan{
      {NodeId(), MoveDirection::kForward},                   // invalid id
      {n.find_by_name("t"), MoveDirection::kForward},        // a latch
  };
  const LintResult result = run_lint(n, plan);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kBadPlanElement), 2u);
  EXPECT_FALSE(result.plan->feasible);
  EXPECT_EQ(result.plan->moves[0].reason.code, MoveReason::kDeadElement);
  EXPECT_EQ(result.plan->moves[1].reason.code, MoveReason::kNotCombinational);
  for (const Diagnostic& d : result.diagnostics.diagnostics()) {
    if (d.code != DiagCode::kBadPlanElement) continue;
    EXPECT_EQ(d.message, *d.move_index == 0
                             ? "element is not a live netlist node"
                             : "element is a latch, not a combinational cell");
  }
}

TEST(PlanAnalysis, MaxKBoundViolationIsAnError) {
  const Netlist d = figure1_original();
  const std::vector<RetimingMove> plan{
      {d.find_by_name("J1"), MoveDirection::kForward}};
  LintOptions opt;
  opt.max_k = 0;
  const LintResult result = run_lint(d, plan, opt);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kDelayBoundExceeded), 1u);
  EXPECT_TRUE(result.has_errors());

  opt.max_k = 1;
  EXPECT_FALSE(run_lint(d, plan, opt).has_errors());
}

TEST(PlanAnalysis, NonJunctionNormalNetlistIsNotAnalyzable) {
  Netlist n;  // un-junctionized: latch port fans out twice
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(PortRef(t, 0), PinRef(x, 0));
  n.connect(PortRef(in, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(t, 0));
  n.connect(PortRef(t, 0), PinRef(out, 0));

  const std::vector<RetimingMove> plan{{x, MoveDirection::kForward}};
  const LintResult result = run_lint(n, plan);
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_FALSE(result.plan->analyzable);
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kPlanNotAnalyzable), 1u);
}

// One case per RTV202 reason code: the move's reason names the code and
// the pin or port, and the lint detail is formatted from it.

/// The one RTV202 diagnostic of `result`.
const Diagnostic& not_enabled(const LintResult& result) {
  const auto& all = result.diagnostics.diagnostics();
  const auto it = std::find_if(all.begin(), all.end(), [](const Diagnostic& d) {
    return d.code == DiagCode::kMoveNotEnabled;
  });
  EXPECT_EQ(count_code(result.diagnostics, DiagCode::kMoveNotEnabled), 1u)
      << render_text(result);
  if (it == all.end()) throw std::runtime_error("no RTV202 diagnostic");
  return *it;
}

/// A half adder (two output ports) on inputs a and b; port 0 reaches
/// output s through a latch, port 1 drives output c directly, or nothing
/// without `carry_out`.
Netlist half_adder_one_latched_port(bool carry_out = true) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId s = n.add_output("s");
  const NodeId ha = n.add_table_cell(n.add_table(TruthTable::half_adder()),
                                     "ha");
  const NodeId l = n.add_latch("L");
  n.connect(PortRef(a, 0), PinRef(ha, 0));
  n.connect(PortRef(b, 0), PinRef(ha, 1));
  n.connect(PortRef(ha, 0), PinRef(l, 0));
  n.connect(PortRef(l, 0), PinRef(s, 0));
  if (carry_out) n.connect(PortRef(ha, 1), PinRef(n.add_output("c"), 0));
  return n;
}

TEST(PlanAnalysis, ReasonNoLatchOnInputPinNamesThePin) {
  // x's pin 0 is latched, its pin 1 comes straight from input b.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId out = n.add_output("out");
  const NodeId l = n.add_latch("L");
  const NodeId x = n.add_gate(CellKind::kAnd, 2, "x");
  n.connect(PortRef(a, 0), PinRef(l, 0));
  n.connect(PortRef(l, 0), PinRef(x, 0));
  n.connect(PortRef(b, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(out, 0));
  const std::vector<RetimingMove> plan{{x, MoveDirection::kForward}};
  const LintResult result = run_lint(n, plan);
  EXPECT_EQ(result.plan->moves[0].reason.code, MoveReason::kNoLatchOnPin);
  EXPECT_EQ(result.plan->moves[0].reason.index, 1u);
  const Diagnostic& d = not_enabled(result);
  EXPECT_EQ(d.node_name, "x");
  EXPECT_EQ(d.move_index, 0u);
  EXPECT_EQ(d.message,
            "forward move is not enabled: input pin wire 1 carries no latch "
            "at this plan position");
}

TEST(PlanAnalysis, ReasonNoLatchOnOutputPortNamesThePort) {
  const Netlist n = half_adder_one_latched_port();
  const std::vector<RetimingMove> plan{
      {n.find_by_name("ha"), MoveDirection::kBackward}};
  const LintResult result = run_lint(n, plan);
  EXPECT_EQ(result.plan->moves[0].reason.code, MoveReason::kNoLatchOnPort);
  EXPECT_EQ(result.plan->moves[0].reason.index, 1u);
  const Diagnostic& d = not_enabled(result);
  EXPECT_EQ(d.node_name, "ha");
  EXPECT_EQ(d.message,
            "backward move is not enabled: output port wire 1 carries no "
            "latch at this plan position");
}

TEST(PlanAnalysis, ReasonPortFanoutNamesThePortAndItsSinks) {
  // The half adder's carry port drives nothing: a dangling port is
  // structurally sound, but no move across the cell is defined.
  const Netlist n = half_adder_one_latched_port(/*carry_out=*/false);
  const std::vector<RetimingMove> plan{
      {n.find_by_name("ha"), MoveDirection::kBackward}};
  const LintResult result = run_lint(n, plan);
  ASSERT_TRUE(result.plan->analyzable) << result.plan->precondition_error;
  EXPECT_EQ(result.plan->moves[0].reason.code, MoveReason::kPortFanout);
  EXPECT_EQ(result.plan->moves[0].reason.index, 1u);
  const Diagnostic& d = not_enabled(result);
  EXPECT_EQ(d.node_name, "ha");
  EXPECT_EQ(d.message,
            "backward move is not enabled: output port 1 drives 0 pins "
            "(need exactly 1)");
}

// ---- flow precondition -----------------------------------------------------

TEST(FlowLint, BrokenInputIsRejectedUpFront) {
  Netlist n;
  n.add_input("in");
  n.add_gate(CellKind::kAnd, 2, "a");  // unconnected pins
  EXPECT_THROW(run_synthesis_flow(n), InvalidArgument);
}

TEST(FlowLint, CleanInputStillFlows) {
  const FlowReport r = run_synthesis_flow(toggle_circuit());
  EXPECT_TRUE(r.accepted());
}

// ---- plan JSON -------------------------------------------------------------

TEST(PlanJson, RoundTripsThroughText) {
  const Netlist d = figure1_original();
  const std::vector<RetimingMove> plan{
      {d.find_by_name("J1"), MoveDirection::kForward},
      {d.find_by_name("AND1"), MoveDirection::kBackward}};
  const RetimingPlan parsed = plan_from_json(plan_to_json(d, plan), d);
  EXPECT_EQ(parsed.moves, plan);
}

TEST(PlanJson, ResolvesByNameOrNode) {
  const Netlist d = figure1_original();
  const NodeId j1 = d.find_by_name("J1");
  const RetimingPlan by_name = plan_from_json(
      R"({"moves": [{"element": "J1", "direction": "forward"}]})", d);
  const RetimingPlan by_node = plan_from_json(
      R"({"moves": [{"node": )" + std::to_string(j1.value) +
          R"(, "direction": "forward"}]})",
      d);
  ASSERT_EQ(by_name.moves.size(), 1u);
  EXPECT_EQ(by_name.moves, by_node.moves);
  EXPECT_EQ(by_name.moves[0].element, j1);
}

TEST(PlanJson, RejectsMalformedPlans) {
  const Netlist d = figure1_original();
  EXPECT_THROW(plan_from_json("[]", d), ParseError);
  EXPECT_THROW(plan_from_json(R"({"moves": [{}]})", d), ParseError);
  EXPECT_THROW(plan_from_json(
                   R"({"moves": [{"element": "nope", "direction": "forward"}]})",
                   d),
               ParseError);
  EXPECT_THROW(plan_from_json(
                   R"({"moves": [{"element": "J1", "direction": "sideways"}]})",
                   d),
               ParseError);
}

// ---- JSON report shape -----------------------------------------------------

/// The lint job's result object (the `rtv lint --json` / serve shape).
JsonValue lint_json(const Netlist& d, const std::vector<RetimingMove>& plan) {
  JsonValue::Object options;
  if (!plan.empty()) {
    options.emplace_back("plan", JsonValue(plan_to_json(d, plan)));
  }
  serve::JobDesigns designs;
  designs.a = &d;
  return serve::run_job(serve::JobType::kLint, JsonValue(std::move(options)),
                        designs, {})
      .result;
}

TEST(LintJson, ReportParsesAndHasTheDocumentedShape) {
  const Netlist d = figure1_original();
  const std::vector<RetimingMove> plan{
      {d.find_by_name("J1"), MoveDirection::kForward}};
  const JsonValue doc = parse_json(write_json(lint_json(d, plan)));
  ASSERT_TRUE(doc.is_object());

  // RTV201 (unsafe forward) + RTV301 (stuck-at-X latch) warnings; RTV205
  // (delay bound) + RTV305 (move statically certified: junctions preserve
  // all-X) notes. Canonical order sorts by code.
  EXPECT_EQ(doc.find("errors")->as_number(), 0.0);
  EXPECT_EQ(doc.find("warnings")->as_number(), 2.0);
  EXPECT_EQ(doc.find("notes")->as_number(), 2.0);
  EXPECT_FALSE(doc.find("clean")->as_bool());

  const JsonValue* dataflow = doc.find("dataflow");
  ASSERT_NE(dataflow, nullptr);
  EXPECT_GT(dataflow->find("ports")->as_number(), 0.0);

  const JsonValue* diags = doc.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->as_array().size(), 4u);
  const JsonValue& unsafe = diags->as_array()[0];
  EXPECT_EQ(unsafe.find("code")->as_string(), "RTV201");
  EXPECT_EQ(unsafe.find("severity")->as_string(), "warning");
  EXPECT_EQ(unsafe.find("node")->as_string(), "J1");
  EXPECT_EQ(unsafe.find("move")->as_number(), 0.0);
  EXPECT_EQ(diags->as_array()[1].find("code")->as_string(), "RTV205");
  EXPECT_EQ(diags->as_array()[2].find("code")->as_string(), "RTV301");
  const JsonValue& certified = diags->as_array()[3];
  EXPECT_EQ(certified.find("code")->as_string(), "RTV305");
  EXPECT_EQ(certified.find("severity")->as_string(), "note");
  EXPECT_EQ(certified.find("node")->as_string(), "J1");
  EXPECT_EQ(certified.find("move")->as_number(), 0.0);

  const JsonValue* p = doc.find("plan");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->find("analyzable")->as_bool());
  EXPECT_TRUE(p->find("feasible")->as_bool());
  EXPECT_EQ(p->find("moves")->as_number(), 1.0);
  EXPECT_EQ(p->find("forward_moves")->as_number(), 1.0);
  EXPECT_EQ(p->find("backward_moves")->as_number(), 0.0);
  EXPECT_EQ(p->find("forward_across_non_justifiable")->as_number(), 1.0);
  EXPECT_EQ(p->find("k")->as_number(), 1.0);
  EXPECT_FALSE(p->find("safe_replacement")->as_bool());
  EXPECT_FALSE(p->find("certificate")->as_string().empty());
}

TEST(LintJson, CleanReportIsCleanAndPlanless) {
  const JsonValue doc = lint_json(inverter_pipeline(), {});
  EXPECT_TRUE(doc.find("clean")->as_bool());
  EXPECT_TRUE(doc.find("diagnostics")->as_array().empty());
  EXPECT_EQ(doc.find("plan"), nullptr);
}

// ---- JSON parser -----------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"})");
  EXPECT_EQ(v.find("a")->as_array()[0].as_number(), 1.0);
  EXPECT_EQ(v.find("a")->as_array()[1].as_number(), 2.5);
  EXPECT_EQ(v.find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_TRUE(v.find("b")->find("d")->is_null());
  EXPECT_EQ(v.find("e")->as_string(), "x\ny");
}

TEST(Json, ParsesUnicodeEscapes) {
  // U+2291 SQUARE IMAGE OF OR EQUAL TO, the paper's ⊑.
  EXPECT_EQ(parse_json(R"("\u2291")").as_string(), "\xE2\x8A\x91");
  // Surrogate pair: U+1F600 GRINNING FACE.
  EXPECT_EQ(parse_json(R"("\uD83D\uDE00")").as_string(), "\xF0\x9F\x98\x80");
  // Lone surrogates are malformed.
  EXPECT_THROW(parse_json(R"("\uD83D")"), ParseError);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "01", "1 2",
                          "\"unterminated", "{\"a\": }", "nul", "+1"}) {
    EXPECT_THROW(parse_json(bad), ParseError) << bad;
  }
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01 ⊑";
  const std::string quoted =
      std::string("\"").append(json_escape(nasty)).append("\"");
  EXPECT_EQ(parse_json(quoted).as_string(), nasty);
}

}  // namespace
}  // namespace rtv
