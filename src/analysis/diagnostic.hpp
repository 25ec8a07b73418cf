#pragma once
// Structured diagnostics for the static-analysis subsystem.
//
// Every finding a lint pass makes is a Diagnostic: a stable machine code
// (RTV1xx structural, RTV2xx retiming-plan safety), a severity, an optional
// node/move location, and a human message. Passes accumulate diagnostics
// into a DiagnosticReport instead of throwing on the first problem, so one
// run surfaces everything that is wrong with a design or a plan. The full
// code table lives in docs/lint.md.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rtv {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

const char* to_string(Severity severity);

/// Stable diagnostic codes. RTV1xx: structural netlist defects. RTV2xx:
/// retiming-plan analysis (paper Section 4). RTV3xx: semantic findings from
/// the ternary dataflow fixpoint (dataflow.hpp). Values are the printed
/// number.
enum class DiagCode : std::uint16_t {
  // -- structural lint (RTV1xx) --------------------------------------------
  kUnconnectedPin = 101,     ///< input pin with no driver
  kMultiDrivenPin = 102,     ///< pin claimed as sink by more than one port
  kBadArity = 103,           ///< pin/port count illegal for the cell kind
  kBadTable = 104,           ///< dangling table id / table arity mismatch
  kBrokenCrossLink = 105,    ///< fanin/fanout disagree or dead references
  kIndexOutOfSync = 106,     ///< PI/PO/latch index vector inconsistent
  kCombinationalCycle = 107, ///< latch-free feedback cycle
  kDanglingPort = 108,       ///< output port drives nothing
  kImplicitFanout = 109,     ///< port with >1 sink (not junction-normal)
  kUnreachableCell = 110,    ///< cell cannot influence any primary output
  // -- retiming-plan analysis (RTV2xx) -------------------------------------
  kUnsafeForwardMove = 201,  ///< forward across non-justifiable (Prop 4.2)
  kMoveNotEnabled = 202,     ///< move not enabled at its plan position
  kBadPlanElement = 203,     ///< plan names a dead/non-combinational node
  kDelayBoundExceeded = 204, ///< Thm 4.5 k above the user bound
  kSettleCertificate = 205,  ///< note: C^k ⊑ D certificate (Thm 4.5/4.6)
  kPlanNotAnalyzable = 206,  ///< netlist fails plan-analysis preconditions
  // -- semantic dataflow lint (RTV3xx) --------------------------------------
  kLatchNeverInitializes = 301,  ///< latch stuck at X in the fixpoint
  kStaticConstant = 302,         ///< signal provably constant on every cycle
  kDeadLogicCone = 303,          ///< unobservable cone (no path to an output)
  kCombinationalScc = 304,       ///< the cells of a latch-free feedback SCC
  kStaticallySafeMove = 305,     ///< unsafe-class move certified safe
};

/// "RTV101", "RTV201", ...
std::string to_string(DiagCode code);

/// One-line title of a code ("unconnected input pin", ...).
const char* diag_code_title(DiagCode code);

/// The severity a code carries unless a pass overrides it.
Severity diag_default_severity(DiagCode code);

/// One finding. `node` is the primary location (invalid when the finding is
/// netlist- or plan-wide); `move_index` is set for plan diagnostics.
struct Diagnostic {
  DiagCode code = DiagCode::kUnconnectedPin;
  Severity severity = Severity::kError;
  NodeId node;
  std::string node_name;            ///< resolved at emit time for rendering
  std::optional<std::size_t> move_index;
  std::string message;
};

/// Accumulator shared by every pass in a lint run.
class DiagnosticReport {
 public:
  void add(Diagnostic diagnostic);

  /// Convenience: default severity, location resolved against `netlist`.
  void add(DiagCode code, const Netlist& netlist, NodeId node,
           std::string message,
           std::optional<std::size_t> move_index = std::nullopt);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t size() const { return diagnostics_.size(); }
  std::size_t num_errors() const { return num_errors_; }
  std::size_t num_warnings() const { return num_warnings_; }
  std::size_t num_notes() const { return num_notes_; }
  bool has_errors() const { return num_errors_ > 0; }

  /// Appends every diagnostic of `other`.
  void merge(const DiagnosticReport& other);

  /// Stable-sorts into the canonical output order — (code, node, move
  /// index), ties kept in emission order — so two runs over the same design
  /// render byte-identically in both the text and JSON renderers.
  void sort_canonical();

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t num_errors_ = 0;
  std::size_t num_warnings_ = 0;
  std::size_t num_notes_ = 0;
};

/// Human-readable rendering, one line per diagnostic plus a summary line:
///   error[RTV101] node 'g': unconnected input pin 1
std::string render_text(const DiagnosticReport& report);

}  // namespace rtv
