#pragma once
// Three-valued logic values and the standard ternary extensions of the
// primitive gate functions.
//
// The paper's conservative three-valued logic simulator (CLS, Section 5)
// performs *local* propagation of X: each gate output is computed from the
// gate's own input values alone, losing any correlation between distinct X
// inputs (e.g. X AND NOT(X) evaluates to X, not 0). The per-gate functions
// below are the exact ternary extensions of each Boolean gate — for a single
// gate, "local propagation" and "exact over all completions" coincide; the
// conservatism of the CLS arises from composing them across the netlist.
//
// Reference three-valued simulation semantics: [Eic65], [JMV69].

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace rtv {

/// A three-valued logic value: 0, 1, or unknown (X).
enum class Trit : std::uint8_t {
  kZero = 0,
  kOne = 1,
  kX = 2,
};

constexpr Trit kT0 = Trit::kZero;
constexpr Trit kT1 = Trit::kOne;
constexpr Trit kTX = Trit::kX;

/// True iff `t` is a definite Boolean value (0 or 1).
constexpr bool is_definite(Trit t) { return t != Trit::kX; }

/// Lift a Boolean to a Trit.
constexpr Trit to_trit(bool b) { return b ? Trit::kOne : Trit::kZero; }

/// Extract the Boolean value of a definite Trit. Precondition: is_definite.
inline bool to_bool(Trit t) {
  RTV_REQUIRE(is_definite(t), "to_bool on X");
  return t == Trit::kOne;
}

/// Information order: X is below both 0 and 1; 0 and 1 are incomparable.
/// Returns true iff `a` is less-or-equally informative than `b` would be
/// inconsistent; this predicate instead answers: could `b` be a refinement
/// of `a`? (a == X, or a == b.)
constexpr bool refines(Trit a, Trit b) { return a == Trit::kX || a == b; }

// ---------------------------------------------------------------------------
// Primitive ternary gate functions (exact per-gate extensions).
// ---------------------------------------------------------------------------

// The encoding makes bit 0 "is 1" and bit 1 "is X", so the gates below are
// straight-line bit arithmetic: a Boolean run through the CLS (definite but
// data-dependent values) would mispredict a branch per gate.

/// The trit whose definite-1 / definite-0 flags are given (X if neither).
constexpr Trit trit_from_flags(unsigned one, unsigned zero) {
  return static_cast<Trit>(one | (((one | zero) ^ 1U) << 1));
}

constexpr Trit not3(Trit a) {
  const unsigned x = static_cast<unsigned>(a);
  return static_cast<Trit>(x ^ ((x >> 1) ^ 1U));
}

constexpr Trit and3(Trit a, Trit b) {
  const unsigned x = static_cast<unsigned>(a), y = static_cast<unsigned>(b);
  return trit_from_flags(x & y & 1U, unsigned{x == 0} | unsigned{y == 0});
}

constexpr Trit or3(Trit a, Trit b) {
  const unsigned x = static_cast<unsigned>(a), y = static_cast<unsigned>(b);
  return trit_from_flags((x | y) & 1U, unsigned{(x | y) == 0});
}

constexpr Trit xor3(Trit a, Trit b) {
  const unsigned x = static_cast<unsigned>(a), y = static_cast<unsigned>(b);
  const unsigned unk = (x | y) >> 1;
  return static_cast<Trit>(((x ^ y) & 1U & (unk ^ 1U)) | (unk << 1));
}

constexpr Trit nand3(Trit a, Trit b) { return not3(and3(a, b)); }
constexpr Trit nor3(Trit a, Trit b) { return not3(or3(a, b)); }
constexpr Trit xnor3(Trit a, Trit b) { return not3(xor3(a, b)); }

/// Ternary 2:1 multiplexer, out = s ? b : a. Exact per-gate: when the select
/// is X but both data inputs agree on a definite value, that value is the
/// output under every completion.
constexpr Trit mux3(Trit s, Trit a, Trit b) {
  if (s == Trit::kZero) return a;
  if (s == Trit::kOne) return b;
  return (a == b && a != Trit::kX) ? a : Trit::kX;
}

// ---------------------------------------------------------------------------
// Formatting / parsing.
// ---------------------------------------------------------------------------

/// '0', '1', or 'X'.
char to_char(Trit t);

/// Parses '0', '1', 'x', or 'X'. Throws ParseError otherwise.
Trit trit_from_char(char c);

/// Renders a vector of trits as a compact string, e.g. "0X1".
std::string to_string(const std::vector<Trit>& v);

/// Renders a sequence of per-cycle vectors joined with '.', e.g. "0.X.X.X".
std::string sequence_to_string(const std::vector<std::vector<Trit>>& seq);

/// Parses a compact trit string, e.g. "0X1" -> {0, X, 1}.
std::vector<Trit> trits_from_string(const std::string& s);

std::ostream& operator<<(std::ostream& os, Trit t);

}  // namespace rtv
