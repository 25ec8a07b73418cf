#pragma once
// Conservative-three-valued-simulation equivalence (paper Section 5).
//
// Corollary 5.3: retiming never changes the CLS-observable behaviour from
// the all-X power-up state. This checker decides, for two concrete designs,
// whether any ternary input sequence can make their CLS outputs differ:
//
//  * exhaustive mode — BFS over *pairs* of ternary states reachable from
//    (all-X, all-X), trying all 3^I ternary input vectors at each pair and
//    asserting output equality. The reachable pair set is finite, so a
//    completed search is a proof of CLS equivalence for this pair of
//    designs (the executable form of the paper's relation R argument).
//    The (pair, input) successors are evaluated 256 to a packed step of
//    the 64-lane ternary simulator (sim/packed_sim.hpp) and then visited
//    one by one in BFS order, so verdicts, counterexamples, pair counts
//    and budget checkpoints are those of a one-successor-at-a-time search.
//
//  * bounded mode — randomized ternary input sequences, for designs whose
//    input count or state space makes the BFS infeasible, simulated 64
//    sequences per word. pairs_explored then counts sampled (sequence,
//    cycle) steps, not state pairs.

#include <optional>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"
#include "sim/vectors.hpp"
#include "util/budget.hpp"

namespace rtv {

/// The engine families that can answer a CLS-equivalence query (see
/// core/verify.hpp for the dispatching entry point and docs/backends.md for
/// the engine matrix):
///  * kExplicit  — ternary state-pair BFS / packed random sampling (this
///                 file; the original engine);
///  * kBdd       — symbolic reachability over the dual-rail encoded miter
///                 (bdd/cls_bdd.hpp);
///  * kSat       — CDCL BMC + k-induction over the unrolled miter AIG
///                 (sat/equiv.hpp);
///  * kPortfolio — an explicit stage (pair BFS, sampling), then BDD and SAT
///                 raced on the same query with verdict cross-checking;
///  * kStatic    — the ternary dataflow fixpoint (analysis/dataflow.hpp):
///                 a whole-design abstract-interpretation proof with no
///                 state-space search at all. Can prove equivalence but
///                 never disprove it; queries it cannot decide come back
///                 kExhausted when it is selected explicitly. The
///                 dispatcher also tries it first as a fast path for every
///                 other backend (VerifyOptions::allow_static_proof).
enum class EquivalenceBackend : std::uint8_t {
  kExplicit,
  kBdd,
  kSat,
  kPortfolio,
  kStatic,
};

const char* to_string(EquivalenceBackend backend);
/// Parses "explicit" | "bdd" | "sat" | "portfolio" | "static"; nullopt
/// otherwise.
std::optional<EquivalenceBackend> equivalence_backend_from_string(
    std::string_view name);

struct ClsEquivOptions {
  /// Exhaustive BFS is used when 3^num_inputs <= max_branching and both
  /// designs have <= 40 latches; otherwise bounded random checking.
  std::uint64_t max_branching = 20000;
  /// Cap on distinct reachable state pairs before falling back to bounded
  /// mode mid-search.
  std::size_t max_pairs = 200000;
  /// Bounded mode: number of random sequences and their length.
  unsigned random_sequences = 200;
  unsigned random_length = 32;
  std::uint64_t seed = 12345;
};

struct ClsEquivalenceResult {
  bool equivalent = false;
  /// True when the full pair-reachability BFS completed: `equivalent` is
  /// then a theorem about all ternary input sequences, not a sample.
  bool exhaustive = false;
  /// How far down the degradation ladder the check got:
  ///  * kProven    — the pair BFS completed (equivalent is a theorem, or a
  ///                 concrete counterexample was found during it);
  ///  * kBounded   — randomized bounded checking ran to completion (a found
  ///                 counterexample is still definitive; "equivalent" is
  ///                 only sampled evidence);
  ///  * kExhausted — the resource budget blew mid-search, or the static
  ///                 backend could not decide: `equivalent` means only "no
  ///                 difference observed" and must not be treated as a
  ///                 result (summary() prints it as undecided).
  /// Invariant: exhaustive == (verdict == Verdict::kProven).
  Verdict verdict = Verdict::kBounded;
  /// Distinguishing ternary input sequence when !equivalent.
  std::optional<TritsSeq> counterexample;
  /// Distinct state pairs the BFS reached; in bounded mode, the sampled
  /// (sequence, cycle) steps, sampled_sequences × sampled_cycles.
  std::size_t pairs_explored = 0;
  /// Bounded mode only: random input sequences simulated side by side, and
  /// cycles each ran before a difference or the budget stopped it (0 for
  /// every other mode).
  unsigned sampled_sequences = 0;
  unsigned sampled_cycles = 0;
  /// Resource consumption snapshot (all-zero when run without a budget).
  ResourceUsage usage;
  /// Which engine produced this verdict (kExplicit for the legacy entry
  /// point; the dispatcher in core/verify.hpp stamps the winning engine,
  /// which for portfolio runs is whichever backend concluded first).
  EquivalenceBackend decided_by = EquivalenceBackend::kExplicit;
  /// One-line human-readable account of why that engine decided (e.g.
  /// "k-induction closed at k=2", "reachability fixpoint after 4 images").
  std::string decided_reason;

  std::string summary() const;
};

/// Requires equal PI and PO counts. Both CLS runs start from all-X.
///
/// With a budget attached the search is cooperatively governed and never
/// throws on exhaustion: blowing the pair cap, step quota, deadline or a
/// cancellation degrades down the ladder (exhaustive BFS -> bounded random
/// checking -> partial kExhausted report) and labels the verdict honestly.
///
/// DEPRECATED shim: this is the explicit engine only, kept for source
/// compatibility. New code should call verify_cls_equivalence
/// (core/verify.hpp), which dispatches over every backend — it behaves
/// identically to this function when VerifyOptions::backend is kExplicit
/// (the default).
ClsEquivalenceResult check_cls_equivalence(const Netlist& a, const Netlist& b,
                                           const ClsEquivOptions& options = {},
                                           ResourceBudget* budget = nullptr);

/// True when check_cls_equivalence runs the exhaustive pair BFS on this
/// pair under `options` (at most 40 latches per design and 3^inputs within
/// max_branching) rather than sampling from the start.
bool pair_bfs_applies(const Netlist& a, const Netlist& b,
                      const ClsEquivOptions& options);

/// Replays a ternary input sequence on both designs; true iff CLS outputs
/// match cycle by cycle (sanity utility for counterexamples).
bool cls_outputs_match(const Netlist& a, const Netlist& b,
                       const TritsSeq& inputs);

}  // namespace rtv
