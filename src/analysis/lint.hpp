#pragma once
// The lint driver: runs every registered pass over a netlist (and
// optionally a retiming plan) and renders the result as text. This is the
// engine behind `rtv lint` and the flow's input precondition; the JSON form
// of a result is the lint job's (serve/jobs.hpp).

#include <optional>
#include <vector>

#include "analysis/pass.hpp"

namespace rtv {

/// Result of a lint run. `plan` is populated only when a plan was given;
/// `dataflow_stats` only when the semantic stage actually ran the ternary
/// fixpoint (LintOptions::semantic on and no structural errors).
struct LintResult {
  DiagnosticReport diagnostics;
  std::optional<PlanAnalysis> plan;
  std::optional<DataflowStats> dataflow_stats;

  bool clean() const { return diagnostics.empty(); }
  bool has_errors() const { return diagnostics.has_errors(); }
};

/// Structure-only lint: runs every pass that does not need a plan.
LintResult run_lint(const Netlist& netlist, const LintOptions& options = {});

/// Full lint: structural passes plus the Section-4 plan analysis. The
/// netlist is never mutated.
LintResult run_lint(const Netlist& netlist,
                    const std::vector<RetimingMove>& plan,
                    const LintOptions& options = {});

/// Human-readable report (diagnostic lines, plan verdict, summary).
std::string render_text(const LintResult& result);

}  // namespace rtv
