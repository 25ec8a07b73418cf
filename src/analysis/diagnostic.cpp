#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <sstream>


namespace rtv {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::string to_string(DiagCode code) {
  return "RTV" + std::to_string(static_cast<std::uint16_t>(code));
}

const char* diag_code_title(DiagCode code) {
  switch (code) {
    case DiagCode::kUnconnectedPin: return "unconnected input pin";
    case DiagCode::kMultiDrivenPin: return "multi-driven pin";
    case DiagCode::kBadArity: return "illegal cell arity";
    case DiagCode::kBadTable: return "broken table cell";
    case DiagCode::kBrokenCrossLink: return "broken fanin/fanout cross-link";
    case DiagCode::kIndexOutOfSync: return "interface index out of sync";
    case DiagCode::kCombinationalCycle: return "combinational cycle";
    case DiagCode::kDanglingPort: return "dangling output port";
    case DiagCode::kImplicitFanout: return "implicit multi-fanout port";
    case DiagCode::kUnreachableCell: return "unreachable cell";
    case DiagCode::kUnsafeForwardMove:
      return "forward move across non-justifiable element";
    case DiagCode::kMoveNotEnabled: return "move not enabled";
    case DiagCode::kBadPlanElement: return "invalid plan element";
    case DiagCode::kDelayBoundExceeded: return "delay bound exceeded";
    case DiagCode::kSettleCertificate: return "settle-cycle certificate";
    case DiagCode::kPlanNotAnalyzable: return "plan not analyzable";
    case DiagCode::kLatchNeverInitializes: return "latch never initializes";
    case DiagCode::kStaticConstant: return "static constant signal";
    case DiagCode::kDeadLogicCone: return "dead logic cone";
    case DiagCode::kCombinationalScc: return "combinational feedback group";
    case DiagCode::kStaticallySafeMove:
      return "move statically certified safe";
  }
  return "unknown diagnostic";
}

Severity diag_default_severity(DiagCode code) {
  switch (code) {
    case DiagCode::kDanglingPort:
    case DiagCode::kImplicitFanout:
    case DiagCode::kUnreachableCell:
    case DiagCode::kUnsafeForwardMove:
    case DiagCode::kLatchNeverInitializes:
      return Severity::kWarning;
    case DiagCode::kSettleCertificate:
    case DiagCode::kStaticConstant:
    case DiagCode::kDeadLogicCone:
    case DiagCode::kCombinationalScc:
    case DiagCode::kStaticallySafeMove:
      return Severity::kNote;
    default:
      return Severity::kError;
  }
}

void DiagnosticReport::add(Diagnostic diagnostic) {
  switch (diagnostic.severity) {
    case Severity::kError: ++num_errors_; break;
    case Severity::kWarning: ++num_warnings_; break;
    case Severity::kNote: ++num_notes_; break;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticReport::add(DiagCode code, const Netlist& netlist, NodeId node,
                           std::string message,
                           std::optional<std::size_t> move_index) {
  Diagnostic d;
  d.code = code;
  d.severity = diag_default_severity(code);
  d.node = node;
  if (node.valid() && node.value < netlist.num_slots() &&
      !netlist.is_dead(node)) {
    d.node_name = netlist.name(node);
  }
  d.move_index = move_index;
  d.message = std::move(message);
  add(std::move(d));
}

void DiagnosticReport::merge(const DiagnosticReport& other) {
  for (const Diagnostic& d : other.diagnostics_) add(d);
}

void DiagnosticReport::sort_canonical() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.code != b.code) return a.code < b.code;
                     if (a.node != b.node) return a.node < b.node;
                     return a.move_index < b.move_index;
                   });
}

std::string render_text(const DiagnosticReport& report) {
  std::ostringstream os;
  for (const Diagnostic& d : report.diagnostics()) {
    os << to_string(d.severity) << "[" << to_string(d.code) << "]";
    if (d.move_index) os << " move " << *d.move_index << ",";
    if (d.node.valid()) os << " node '" << d.node_name << "':";
    os << " " << d.message << "\n";
  }
  os << report.num_errors() << " error(s), " << report.num_warnings()
     << " warning(s), " << report.num_notes() << " note(s)\n";
  return os.str();
}

}  // namespace rtv
