#pragma once
// The .rnl text netlist format: a minimal line-oriented interchange format
// for this library's netlists (round-trip safe, human-diffable).
//
//   rnl 1
//   # comment
//   table <name> <inputs> <outputs>
//   row <minterm-bits> <output-bits>          (one per minterm, LSB first)
//   node <name> <kind> [<arity>|<width>|<table-name>]
//   wire <src-node>.<port> <dst-node>.<pin>
//
// Node declaration order is preserved, so PI/PO/latch vector layouts
// survive a round trip.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace rtv {

/// Largest gate arity or junction width a `node` line may declare; the
/// reader refuses more on that line, before allocating any pin.
inline constexpr unsigned long kMaxRnlCellWidth = 65536;

/// Serializes a netlist (live nodes only; the result is compact).
std::string write_rnl(const Netlist& netlist);

/// Parses the format written by write_rnl. Throws ParseError with a line
/// number on malformed input; the returned netlist passes check_valid().
/// With validate == false, syntactically well-formed but structurally
/// broken netlists are returned as-is, so `rtv lint` can report every
/// defect instead of the loader throwing on the first one.
Netlist read_rnl(const std::string& text, bool validate = true);

/// File helpers.
void save_rnl(const Netlist& netlist, const std::string& path);
Netlist load_rnl(const std::string& path, bool validate = true);

}  // namespace rtv
