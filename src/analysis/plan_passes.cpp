// The plan lint family: Section-4 findings over a PlanAnalysis. The driver
// computes the analysis once (plan.hpp) and shares it through LintContext;
// these passes only translate it into coded diagnostics.

#include "analysis/pass.hpp"

namespace rtv {

namespace {

/// The detail of an RTV203/RTV202 finding, from the move's reason code.
std::string describe(const Netlist& netlist, const PlanMoveCheck& check) {
  const NodeId e = check.move.element;
  const std::string index = std::to_string(check.reason.index);
  switch (check.reason.code) {
    case MoveReason::kDeadElement:
      return "element is not a live netlist node";
    case MoveReason::kNotCombinational:
      return std::string("element is a ") + cell_kind_name(netlist.kind(e)) +
             ", not a combinational cell";
    case MoveReason::kPortFanout:
      // Sink counts never change as latches move, so the input netlist
      // gives the count at every plan position.
      return "output port " + index + " drives " +
             std::to_string(
                 netlist.sinks(PortRef(e, check.reason.index)).size()) +
             " pins (need exactly 1)";
    case MoveReason::kNoLatchOnPin:
      return "input pin wire " + index + " carries no latch at this plan "
             "position";
    case MoveReason::kNoLatchOnPort:
      return "output port wire " + index + " carries no latch at this plan "
             "position";
    case MoveReason::kEnabled:
      break;
  }
  return {};
}

/// RTV206/RTV203/RTV202: the plan must be replayable — netlist analyzable,
/// every element a live combinational cell, every move enabled at its plan
/// position.
void plan_feasibility_pass(const LintContext& ctx, DiagnosticReport& report) {
  const PlanAnalysis& analysis = *ctx.plan_analysis;
  if (!analysis.analyzable) {
    report.add(DiagCode::kPlanNotAnalyzable, ctx.netlist, NodeId(),
               analysis.precondition_error);
  }
  std::size_t index = 0;
  for (const PlanMoveCheck& check : analysis.moves) {
    if (!check.element_ok) {
      report.add(DiagCode::kBadPlanElement, ctx.netlist, check.move.element,
                 describe(ctx.netlist, check), index);
    } else if (analysis.analyzable && !check.enabled) {
      report.add(DiagCode::kMoveNotEnabled, ctx.netlist, check.move.element,
                 std::string(to_string(check.move.direction)) +
                     " move is not enabled: " + describe(ctx.netlist, check),
                 index);
    }
    ++index;
  }
}

/// RTV201/RTV205/RTV204: the paper's safety verdict. Every forward move
/// across a non-justifiable element breaks safe replacement (Prop 4.2) and
/// gets its own warning; a feasible plan with k > 0 gets the Theorem 4.5
/// certificate as a note; RTV204 errors when k exceeds the user's bound.
void plan_safety_pass(const LintContext& ctx, DiagnosticReport& report) {
  const PlanAnalysis& analysis = *ctx.plan_analysis;
  std::size_t index = 0;
  for (const PlanMoveCheck& check : analysis.moves) {
    if (check.element_ok && !check.cls.preserves_safe_replacement()) {
      report.add(DiagCode::kUnsafeForwardMove, ctx.netlist, check.move.element,
                 "forward move across non-justifiable element breaks safe "
                 "replacement (Prop 4.2)",
                 index);
    }
    ++index;
  }
  if (analysis.feasible && analysis.k() > 0) {
    report.add(DiagCode::kSettleCertificate, ctx.netlist, NodeId(),
               "retimed design needs a " + std::to_string(analysis.k()) +
                   "-cycle settling prefix: " + analysis.stats.certificate());
  }
  if (ctx.options.max_k.has_value() && analysis.k() > *ctx.options.max_k) {
    report.add(DiagCode::kDelayBoundExceeded, ctx.netlist, NodeId(),
               "plan needs k = " + std::to_string(analysis.k()) +
                   " settling cycles, exceeding the allowed bound of " +
                   std::to_string(*ctx.options.max_k));
  }
}

}  // namespace

void register_plan_passes(std::vector<LintPass>& passes) {
  passes.push_back({"plan-feasibility",
                    "plan elements resolve and every move is enabled",
                    /*needs_plan=*/true, plan_feasibility_pass});
  passes.push_back({"plan-safety",
                    "Section-4 safety census and Theorem 4.5 certificate",
                    /*needs_plan=*/true, plan_safety_pass});
}

}  // namespace rtv
