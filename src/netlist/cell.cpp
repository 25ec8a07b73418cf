#include "netlist/cell.hpp"

#include <string>

#include "util/error.hpp"

namespace rtv {

const char* cell_kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kInput:
      return "input";
    case CellKind::kOutput:
      return "output";
    case CellKind::kConst0:
      return "const0";
    case CellKind::kConst1:
      return "const1";
    case CellKind::kBuf:
      return "buf";
    case CellKind::kNot:
      return "not";
    case CellKind::kAnd:
      return "and";
    case CellKind::kOr:
      return "or";
    case CellKind::kNand:
      return "nand";
    case CellKind::kNor:
      return "nor";
    case CellKind::kXor:
      return "xor";
    case CellKind::kXnor:
      return "xnor";
    case CellKind::kMux:
      return "mux";
    case CellKind::kJunc:
      return "junc";
    case CellKind::kTable:
      return "table";
    case CellKind::kLatch:
      return "latch";
  }
  throw InternalError("corrupt CellKind value");
}

CellKind cell_kind_from_name(std::string_view name) {
  static constexpr struct {
    std::string_view name;
    CellKind kind;
  } kinds_by_name[] = {
      {"input", CellKind::kInput},   {"output", CellKind::kOutput},
      {"const0", CellKind::kConst0}, {"const1", CellKind::kConst1},
      {"buf", CellKind::kBuf},       {"not", CellKind::kNot},
      {"and", CellKind::kAnd},       {"or", CellKind::kOr},
      {"nand", CellKind::kNand},     {"nor", CellKind::kNor},
      {"xor", CellKind::kXor},       {"xnor", CellKind::kXnor},
      {"mux", CellKind::kMux},       {"junc", CellKind::kJunc},
      {"table", CellKind::kTable},   {"latch", CellKind::kLatch},
  };
  for (const auto& entry : kinds_by_name) {
    if (name == entry.name) return entry.kind;
  }
  throw ParseError("unknown cell kind: '" + std::string(name) + "'");
}

bool is_combinational(CellKind kind) {
  switch (kind) {
    case CellKind::kInput:
    case CellKind::kOutput:
    case CellKind::kLatch:
      return false;
    default:
      return true;
  }
}

bool is_variadic_gate(CellKind kind) {
  switch (kind) {
    case CellKind::kAnd:
    case CellKind::kOr:
    case CellKind::kNand:
    case CellKind::kNor:
    case CellKind::kXor:
    case CellKind::kXnor:
      return true;
    default:
      return false;
  }
}

bool fixed_pin_count(CellKind kind, unsigned& pins) {
  switch (kind) {
    case CellKind::kInput:
    case CellKind::kConst0:
    case CellKind::kConst1:
      pins = 0;
      return true;
    case CellKind::kOutput:
    case CellKind::kBuf:
    case CellKind::kNot:
    case CellKind::kJunc:
    case CellKind::kLatch:
      pins = 1;
      return true;
    case CellKind::kMux:
      pins = 3;
      return true;
    default:
      return false;
  }
}

bool fixed_port_count(CellKind kind, unsigned& ports) {
  switch (kind) {
    case CellKind::kOutput:
      ports = 0;
      return true;
    case CellKind::kJunc:
    case CellKind::kTable:
      return false;
    default:
      ports = 1;
      return true;
  }
}

}  // namespace rtv
