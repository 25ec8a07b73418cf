// The semantic lint family (RTV3xx): findings read off the ternary
// dataflow fixpoint (dataflow.hpp) plus the two structural reports that
// need no fixpoint — dead cones and combinational SCCs. All five passes
// gate on LintOptions::semantic; the three fixpoint passes additionally
// carry needs_dataflow, so the driver defers them until the fixpoint
// exists and drops them when structural errors made it meaningless.

#include <algorithm>

#include "analysis/pass.hpp"

namespace rtv {

namespace {

/// Renders up to `limit` node names for a grouped diagnostic, appending
/// ", ..." when the group is larger.
std::string name_list(const Netlist& netlist, const std::vector<NodeId>& ids,
                      std::size_t limit) {
  std::string out;
  for (std::size_t i = 0; i < ids.size() && i < limit; ++i) {
    if (i > 0) out += ", ";
    out += "'" + netlist.name(ids[i]) + "'";
  }
  if (ids.size() > limit) out += ", ...";
  return out;
}

/// RTV303: maximal unobservable cones, one note per cone. A cone is a
/// connected component (ignoring edge direction) of the subgraph induced by
/// the live unobservable non-input cells, anchored at its smallest NodeId.
/// Complements the per-cell RTV110 warning with the grouped view a user
/// acts on: delete the cone, not a cell at a time.
void dead_cone_pass(const LintContext& ctx, DiagnosticReport& report) {
  if (!ctx.options.semantic) return;
  const Netlist& n = ctx.netlist;
  const std::vector<bool> observable = observable_mask(n);

  std::vector<bool> in_cone(n.num_slots(), false);
  std::vector<NodeId> dead_cells;
  for (const NodeId id : n.live_nodes()) {
    if (observable[id.value] || n.kind(id) == CellKind::kInput) continue;
    in_cone[id.value] = true;
    dead_cells.push_back(id);
  }
  if (dead_cells.empty()) return;

  // Flood-fill each component across fanin and fanout edges restricted to
  // cone members. dead_cells is in ascending id order, so each component is
  // discovered from (and anchored at) its smallest member.
  std::vector<bool> visited(n.num_slots(), false);
  for (const NodeId root : dead_cells) {
    if (visited[root.value]) continue;
    std::vector<NodeId> component;
    std::vector<NodeId> stack{root};
    visited[root.value] = true;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      component.push_back(v);
      auto visit = [&](NodeId next) {
        if (!next.valid() || next.value >= n.num_slots()) return;
        if (!in_cone[next.value] || visited[next.value]) return;
        visited[next.value] = true;
        stack.push_back(next);
      };
      const Node& node = n.node(v);
      for (const PortRef& drv : node.fanin) visit(drv.node);
      for (const auto& port_sinks : node.fanout) {
        for (const PinRef& s : port_sinks) visit(s.node);
      }
    }
    std::sort(component.begin(), component.end());
    report.add(DiagCode::kDeadLogicCone, n, component.front(),
               "dead logic cone of " + std::to_string(component.size()) +
                   " cell(s): " + name_list(n, component, 8) +
                   " — no path to any primary output "
                   "(sweep_unobservable() removes the whole cone)");
  }
}

/// RTV304: the cells of every latch-free feedback group, one note per SCC.
/// RTV107 already errors on the existence of a combinational cycle; this
/// note names the members so the user can see the whole loop at once.
void combinational_scc_pass(const LintContext& ctx, DiagnosticReport& report) {
  if (!ctx.options.semantic) return;
  const Netlist& n = ctx.netlist;
  for (const std::vector<NodeId>& scc : combinational_sccs(n)) {
    report.add(DiagCode::kCombinationalScc, n, scc.front(),
               "latch-free feedback group of " + std::to_string(scc.size()) +
                   " cell(s): " + name_list(n, scc, 8) +
                   " — every cycle must cross a latch (Section 3.2)");
  }
}

/// RTV301: latches whose fixpoint set is exactly {X} — no input sequence
/// can ever initialize them, so the paper's validity question is vacuous
/// for that state bit.
void latch_init_pass(const LintContext& ctx, DiagnosticReport& report) {
  if (!ctx.options.semantic) return;
  const DataflowResult& df = *ctx.dataflow;
  for (const NodeId latch : ctx.netlist.latches()) {
    if (!df.latch_stuck_at_x(latch)) continue;
    report.add(DiagCode::kLatchNeverInitializes, ctx.netlist, latch,
               "latch can never leave X: no input sequence initializes it "
               "from the all-X power-up state, so retiming validity is "
               "vacuous for this state bit (Section 5)");
  }
}

/// RTV302: combinational signals whose fixpoint set is a definite
/// singleton — the signal is that constant on every cycle of every input
/// sequence. Declared constants and junction branches are skipped (the
/// junction only copies what its already-reported driver produces).
void static_constant_pass(const LintContext& ctx, DiagnosticReport& report) {
  if (!ctx.options.semantic) return;
  const Netlist& n = ctx.netlist;
  const DataflowResult& df = *ctx.dataflow;
  for (const NodeId id : n.live_nodes()) {
    const CellKind k = n.kind(id);
    if (!is_combinational(k) || k == CellKind::kConst0 ||
        k == CellKind::kConst1 || k == CellKind::kJunc) {
      continue;
    }
    for (std::uint32_t port = 0; port < n.num_ports(id); ++port) {
      const std::optional<bool> value = df.constant_value(PortRef(id, port));
      if (!value) continue;
      std::string where =
          n.num_ports(id) > 1 ? "port " + std::to_string(port) + " " : "";
      report.add(DiagCode::kStaticConstant, n, id,
                 where + "is statically constant " +
                     std::string(*value ? "1" : "0") +
                     " on every cycle of every input sequence "
                     "(propagate_constants() could fold it)");
    }
  }
}

/// RTV305: static safety certificates for the moves RTV201 warned about. A
/// forward move across a non-justifiable element breaks safe replacement
/// in general (Prop 4.2), but three static arguments can still prove the
/// concrete move harmless (see certify_move); each certified move gets a
/// note telling the user no engine run is needed. The certificates come
/// from the plan replay itself: with the semantic stage on, run_lint asks
/// analyze_plan to certify every unsafe-class move at its own position.
/// Moves that already preserve safe replacement need no certificate, so a
/// clean plan stays clean.
void static_safety_pass(const LintContext& ctx, DiagnosticReport& report) {
  const PlanAnalysis& analysis = *ctx.plan_analysis;
  if (!analysis.feasible) return;
  for (std::size_t i = 0; i < analysis.moves.size(); ++i) {
    const PlanMoveCheck& check = analysis.moves[i];
    if (!check.certificate || !check.certificate->certified) continue;
    report.add(DiagCode::kStaticallySafeMove, ctx.netlist, check.move.element,
               "statically certified safe: " + check.certificate->reason +
                   "; no engine run needed",
               i);
  }
}

}  // namespace

void register_semantic_passes(std::vector<LintPass>& passes) {
  passes.push_back({"dead-cones",
                    "group unobservable cells into maximal dead cones",
                    /*needs_plan=*/false, dead_cone_pass});
  passes.push_back({"combinational-sccs",
                    "name the cells of every latch-free feedback group",
                    /*needs_plan=*/false, combinational_scc_pass});
  passes.push_back({"latch-initialization",
                    "every latch can leave X from the all-X power-up state",
                    /*needs_plan=*/false, latch_init_pass,
                    /*needs_dataflow=*/true});
  passes.push_back({"static-constants",
                    "no signal is provably constant on every cycle",
                    /*needs_plan=*/false, static_constant_pass,
                    /*needs_dataflow=*/true});
  passes.push_back({"static-move-safety",
                    "certify unsafe-class plan moves without an engine run",
                    /*needs_plan=*/true, static_safety_pass,
                    /*needs_dataflow=*/true});
}

}  // namespace rtv
