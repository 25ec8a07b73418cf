#pragma once
// Cell kinds of the gate-level library (paper Section 3.2).
//
// The library contains combinational gates, edge-triggered latches without
// set/reset (the paper's model deliberately avoids requiring reset lines),
// explicit fanout junctions (JUNC), and generic multi-output table cells.
// Latches with synchronous control pins are modelled, as in the paper's
// introduction, by a simple latch surrounded by gates (see gen/datapath).

#include <cstdint>
#include <string_view>

namespace rtv {

enum class CellKind : std::uint8_t {
  kInput,   ///< primary input: 0 pins, 1 output port
  kOutput,  ///< primary output: 1 pin, 0 output ports
  kConst0,  ///< constant 0: 0 pins, 1 port (non-justifiable)
  kConst1,  ///< constant 1: 0 pins, 1 port (non-justifiable)
  kBuf,     ///< buffer: 1 pin, 1 port
  kNot,     ///< inverter
  kAnd,     ///< n-input AND (n >= 1)
  kOr,      ///< n-input OR
  kNand,    ///< n-input NAND
  kNor,     ///< n-input NOR
  kXor,     ///< n-input XOR (odd parity)
  kXnor,    ///< n-input XNOR (even parity)
  kMux,     ///< 2:1 mux, pins (s, a, b), out = s ? b : a
  kJunc,    ///< fanout junction: 1 pin, k ports, all copies of the input
  kTable,   ///< generic multi-output cell defined by a TruthTable
  kLatch,   ///< edge-triggered latch: 1 pin, 1 port, no set/reset
};

/// Short lower-case mnemonic ("and", "junc", ...), stable across versions;
/// used by the .rnl text format.
const char* cell_kind_name(CellKind kind);

/// Inverse of cell_kind_name. Throws ParseError for unknown names.
CellKind cell_kind_from_name(std::string_view name);

/// True for every kind that computes a combinational function
/// (everything except kInput, kOutput and kLatch).
bool is_combinational(CellKind kind);

/// True for the variadic single-output logic gates (kAnd..kXnor).
bool is_variadic_gate(CellKind kind);

/// True if the kind has a fixed input-pin count; returns that count via
/// `pins`. Variadic gates, junctions and table cells return false.
bool fixed_pin_count(CellKind kind, unsigned& pins);

/// True if the kind has a fixed output-port count; returns it via `ports`.
bool fixed_port_count(CellKind kind, unsigned& ports);

}  // namespace rtv
