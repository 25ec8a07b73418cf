#include "analysis/plan.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/json.hpp"
#include "retime/sequencer.hpp"

namespace rtv {

namespace {

/// Why `netlist` fails the replay preconditions, or "" when it passes: the
/// plan's positions are only meaningful on a structurally sound
/// junction-normal netlist.
std::string replay_precondition_error(const Netlist& netlist) {
  if (const auto violations = netlist.structural_violations();
      !violations.empty()) {
    return "netlist fails structural lint (" +
           std::to_string(violations.size()) +
           " violation(s), first: " + violations.front().message + ")";
  }
  if (!netlist.is_junction_normal()) {
    return "netlist is not junction-normal (run junctionize() first)";
  }
  // A sink-less latch lies on no wire chain into a pin (no retiming-graph
  // edge), so no plan position can account for it.
  for (const NodeId latch : netlist.latches()) {
    if (netlist.sinks(PortRef(latch, 0)).empty()) {
      return "latch '" + netlist.name(latch) +
             "' drives nothing; its wire chain cannot be replayed";
    }
  }
  return {};
}

}  // namespace

PlanAnalysis analyze_plan(const Netlist& netlist,
                          const std::vector<RetimingMove>& moves,
                          bool certify_unsafe) {
  PlanAnalysis analysis;
  analysis.precondition_error = replay_precondition_error(netlist);
  analysis.analyzable = analysis.precondition_error.empty();

  Netlist work = netlist;
  PlanMoveCheck* current = nullptr;  // the check of the move being stepped
  MoveVisitor certifier;
  if (certify_unsafe && analysis.analyzable) {
    certifier = [&current, observable = observable_mask(netlist)](
                    const Netlist& before, const RetimingMove& move) {
      if (!classify_move(before, move).preserves_safe_replacement()) {
        current->certificate = certify_move(before, move, observable);
      }
    };
  }
  MoveReplay replay(work, std::move(certifier));

  analysis.moves.reserve(moves.size());
  analysis.feasible = analysis.analyzable;
  for (const RetimingMove& move : moves) {
    PlanMoveCheck& check = analysis.moves.emplace_back();
    check.move = move;
    current = &check;
    // The element is judged on the input netlist, where the plan names it;
    // off the preconditions nothing else is judged and nothing is applied.
    check.reason = move_reason(netlist, move);
    if (analysis.analyzable && check.reason.element_ok()) {
      check.reason = replay.step(move, &check.cls);
    }
    check.element_ok = check.reason.element_ok();
    check.enabled = analysis.analyzable && check.reason.enabled();
    if (check.element_ok && !check.enabled) {
      check.cls = classify_move(netlist, move);
      replay.count(move, check.cls);
    }
    analysis.feasible &= check.enabled;
  }
  analysis.stats = replay.stats();
  return analysis;
}

// ---- JSON plan files -------------------------------------------------------

RetimingPlan plan_from_json(const std::string& text, const Netlist& netlist) {
  const JsonValue doc = parse_json(text);
  const JsonValue* moves = doc.find("moves");
  if (moves == nullptr || !moves->is_array()) {
    throw ParseError("plan JSON must be an object with a \"moves\" array");
  }
  RetimingPlan plan;
  plan.moves.reserve(moves->as_array().size());
  std::size_t index = 0;
  for (const JsonValue& entry : moves->as_array()) {
    const std::string at = "plan move " + std::to_string(index);
    if (!entry.is_object()) throw ParseError(at + ": expected an object");
    RetimingMove move;

    if (const JsonValue* name = entry.find("element");
        name != nullptr && name->is_string() && !name->as_string().empty()) {
      move.element = netlist.find_by_name(name->as_string());
      if (!move.element.valid()) {
        throw ParseError(at + ": no node named '" + name->as_string() + "'");
      }
    } else if (const JsonValue* node = entry.find("node"); node != nullptr) {
      const double raw = node->as_number();
      if (raw < 0 || raw >= static_cast<double>(netlist.num_slots()) ||
          raw != std::floor(raw)) {
        throw ParseError(at + ": \"node\" is not a valid node id");
      }
      move.element = NodeId(static_cast<std::uint32_t>(raw));
    } else {
      throw ParseError(at + ": needs an \"element\" name or a \"node\" id");
    }

    const JsonValue* direction = entry.find("direction");
    if (direction == nullptr || !direction->is_string()) {
      throw ParseError(at + ": needs a \"direction\" string");
    }
    move.direction = move_direction_from_string(direction->as_string());
    plan.moves.push_back(move);
    ++index;
  }
  return plan;
}

RetimingPlan load_plan(const std::string& path, const Netlist& netlist) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open plan file '" + path + "'");
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return plan_from_json(buffer.str(), netlist);
}

std::string plan_to_json(const Netlist& netlist,
                         const std::vector<RetimingMove>& moves) {
  std::ostringstream os;
  os << "{\n  \"moves\": [";
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const RetimingMove& m = moves[i];
    os << (i == 0 ? "\n" : ",\n") << "    {";
    const bool in_range = m.element.valid() &&
                          m.element.value < netlist.num_slots() &&
                          !netlist.is_dead(m.element);
    if (in_range && !netlist.name(m.element).empty()) {
      os << "\"element\": \"" << json_escape(netlist.name(m.element))
         << "\", ";
    }
    os << "\"node\": " << m.element.value << ", \"direction\": \""
       << to_string(m.direction) << "\"}";
  }
  os << (moves.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace rtv
