#include "analysis/lint.hpp"

#include <sstream>

namespace rtv {

namespace {

LintResult run_passes(const Netlist& netlist,
                      const std::vector<RetimingMove>* plan,
                      const LintOptions& options) {
  LintResult result;
  LintContext ctx{netlist, options};
  if (plan != nullptr) {
    result.plan = analyze_plan(netlist, *plan, options.semantic);
    ctx.plan = plan;
    ctx.plan_analysis = &*result.plan;
  }

  // Stage 1: every pass that works on structure alone. Their verdict
  // decides whether the fixpoint is worth computing — its claims are only
  // meaningful on a structurally sound netlist.
  for (const LintPass& pass : lint_passes()) {
    if (pass.needs_dataflow) continue;
    if (pass.needs_plan && ctx.plan == nullptr) continue;
    pass.run(ctx, result.diagnostics);
  }

  // Stage 2: the ternary dataflow fixpoint and the passes that read it.
  std::optional<DataflowResult> dataflow;
  if (options.semantic && !result.diagnostics.has_errors()) {
    dataflow.emplace(run_dataflow(netlist));
    ctx.dataflow = &*dataflow;
    result.dataflow_stats = dataflow->stats();
    for (const LintPass& pass : lint_passes()) {
      if (!pass.needs_dataflow) continue;
      if (pass.needs_plan && ctx.plan == nullptr) continue;
      pass.run(ctx, result.diagnostics);
    }
  }

  result.diagnostics.sort_canonical();
  return result;
}

}  // namespace

LintResult run_lint(const Netlist& netlist, const LintOptions& options) {
  return run_passes(netlist, nullptr, options);
}

LintResult run_lint(const Netlist& netlist,
                    const std::vector<RetimingMove>& plan,
                    const LintOptions& options) {
  return run_passes(netlist, &plan, options);
}

std::string render_text(const LintResult& result) {
  std::ostringstream os;
  os << render_text(result.diagnostics);
  if (result.dataflow_stats) {
    const DataflowStats& s = *result.dataflow_stats;
    os << "dataflow: " << s.num_ports << " port(s), " << s.iterations
       << " iteration(s), " << s.updates << " update(s), "
       << s.table_fallbacks << " table fallback(s)\n";
  }
  if (result.plan) {
    const PlanAnalysis& p = *result.plan;
    os << "plan: " << p.stats.total_moves << " move(s), "
       << p.stats.forward_moves << " forward / " << p.stats.backward_moves
       << " backward, " << p.stats.forward_across_non_justifiable
       << " forward across non-justifiable";
    if (!p.analyzable) {
      os << "; NOT ANALYZABLE: " << p.precondition_error << "\n";
    } else {
      os << "; " << (p.feasible ? "feasible" : "NOT feasible")
         << ", k = " << p.k() << "\n";
      if (p.feasible) os << "certificate: " << p.stats.certificate() << "\n";
    }
  }
  return os.str();
}

}  // namespace rtv
