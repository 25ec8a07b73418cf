#include "core/cls_equiv.hpp"

#include <bit>
#include <deque>
#include <sstream>
#include <unordered_set>

#include "sim/cls_sim.hpp"
#include "sim/packed_sim.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace rtv {

const char* to_string(EquivalenceBackend backend) {
  switch (backend) {
    case EquivalenceBackend::kExplicit:
      return "explicit";
    case EquivalenceBackend::kBdd:
      return "bdd";
    case EquivalenceBackend::kSat:
      return "sat";
    case EquivalenceBackend::kPortfolio:
      return "portfolio";
    case EquivalenceBackend::kStatic:
      return "static";
  }
  return "?";
}

std::optional<EquivalenceBackend> equivalence_backend_from_string(
    std::string_view name) {
  if (name == "explicit") return EquivalenceBackend::kExplicit;
  if (name == "bdd") return EquivalenceBackend::kBdd;
  if (name == "sat") return EquivalenceBackend::kSat;
  if (name == "portfolio") return EquivalenceBackend::kPortfolio;
  if (name == "static") return EquivalenceBackend::kStatic;
  return std::nullopt;
}

std::string ClsEquivalenceResult::summary() const {
  std::ostringstream os;
  if (verdict == Verdict::kExhausted) {
    // An exhausted search decided nothing, whatever `equivalent` says.
    os << "CLS-UNDECIDED ("
       << (usage.exhausted ? "budget exhausted" : "inconclusive") << ", "
       << pairs_explored << " state pairs)";
    return os.str();
  }
  os << (equivalent ? "CLS-equivalent" : "CLS-DISTINGUISHABLE") << " ("
     << (exhaustive ? "exhaustive proof" : "bounded check") << ", "
     << pairs_explored << " state pairs)";
  if (counterexample) {
    os << " counterexample inputs: " << sequence_to_string(*counterexample);
  }
  return os.str();
}

bool cls_outputs_match(const Netlist& a, const Netlist& b,
                       const TritsSeq& inputs) {
  ClsSimulator sa(a), sb(b);
  for (const Trits& in : inputs) {
    if (sa.step(in) != sb.step(in)) return false;
  }
  return true;
}

namespace {

struct PairKey {
  std::uint64_t a;
  std::uint64_t b;
  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    std::uint64_t h = k.a * 0x9e3779b97f4a7c15ULL;
    h ^= k.b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

/// Enumerates all ternary vectors of the given width (3^width of them).
Trits nth_ternary_vector(std::uint64_t index, unsigned width) {
  return unpack_trits(index, width);
}

/// Partial kExhausted report: `equivalent` records only that no difference
/// was seen before the budget blew; never a proof, never a counterexample.
ClsEquivalenceResult exhausted_report(ResourceBudget* budget,
                                      std::size_t pairs_explored) {
  ClsEquivalenceResult result;
  result.equivalent = true;
  result.exhaustive = false;
  result.verdict = Verdict::kExhausted;
  result.pairs_explored = pairs_explored;
  result.usage = budget->usage();
  return result;
}

/// Bounded mode, 64 random sequences per machine word: every sequence is a
/// lane of the packed ternary engine, both designs step in lockstep, and
/// the output planes are compared wholesale each cycle.
ClsEquivalenceResult bounded_check(const Netlist& a, const Netlist& b,
                                   const ClsEquivOptions& options,
                                   ResourceBudget* budget) {
  ClsEquivalenceResult result;
  result.exhaustive = false;
  result.verdict = Verdict::kBounded;
  Rng rng(options.seed);
  const unsigned width = static_cast<unsigned>(a.primary_inputs().size());
  const unsigned outputs = static_cast<unsigned>(a.primary_outputs().size());
  const unsigned lanes = options.random_sequences;
  if (lanes == 0 || options.random_length == 0) {
    result.equivalent = true;
    return result;
  }

  std::vector<TritsSeq> sequences(lanes);
  for (unsigned s = 0; s < lanes; ++s) {
    sequences[s].reserve(options.random_length);
    for (unsigned t = 0; t < options.random_length; ++t) {
      Trits in(width);
      for (Trit& v : in) v = static_cast<Trit>(rng.below(3));
      sequences[s].push_back(std::move(in));
    }
  }

  PackedTernarySimulator sa(a, lanes), sb(b, lanes);
  PackedTrits cycle_inputs(width, lanes);
  const unsigned words = sa.words();
  for (unsigned t = 0; t < options.random_length; ++t) {
    if (budget != nullptr && !budget->checkpoint("cls/bounded-cycle")) {
      result.equivalent = true;  // nothing distinguished up to cycle t
      result.verdict = Verdict::kExhausted;
      result.usage = budget->usage();
      return result;
    }
    for (unsigned lane = 0; lane < lanes; ++lane) {
      cycle_inputs.set_lane(lane, sequences[lane][t]);
    }
    sa.step_packed(cycle_inputs);
    sb.step_packed(cycle_inputs);
    result.pairs_explored += lanes;
    for (unsigned o = 0; o < outputs; ++o) {
      const TritWord* wa = sa.output_words(o);
      const TritWord* wb = sb.output_words(o);
      for (unsigned w = 0; w < words; ++w) {
        const std::uint64_t mask = (w + 1 == words && lanes % 64 != 0)
                                       ? low_mask(lanes % 64)
                                       : ~0ULL;
        const std::uint64_t diff =
            ((wa[w].ones ^ wb[w].ones) | (wa[w].unk ^ wb[w].unk)) & mask;
        if (diff == 0) continue;
        const unsigned lane =
            64 * w + static_cast<unsigned>(std::countr_zero(diff));
        result.equivalent = false;
        result.counterexample =
            TritsSeq(sequences[lane].begin(), sequences[lane].begin() + t + 1);
        if (budget != nullptr) result.usage = budget->usage();
        return result;
      }
    }
  }
  result.equivalent = true;
  if (budget != nullptr) result.usage = budget->usage();
  return result;
}

ClsEquivalenceResult explicit_engine(const Netlist& a, const Netlist& b,
                                     const ClsEquivOptions& options,
                                     ResourceBudget* budget) {
  RTV_REQUIRE(a.primary_inputs().size() == b.primary_inputs().size(),
              "designs differ in primary input count");
  RTV_REQUIRE(a.primary_outputs().size() == b.primary_outputs().size(),
              "designs differ in primary output count");

  const unsigned width = static_cast<unsigned>(a.primary_inputs().size());
  const unsigned la = static_cast<unsigned>(a.latches().size());
  const unsigned lb = static_cast<unsigned>(b.latches().size());
  // pow3_saturating clamps to UINT64_MAX past 3^40, so a wide-input design
  // can never wrap around the comparison and get routed into the
  // exhaustive enumeration it could not possibly finish.
  const std::uint64_t branching = pow3_saturating(width);
  const bool can_exhaust = width <= 12 && la <= 40 && lb <= 40 &&
                           branching <= options.max_branching;
  if (!can_exhaust) return bounded_check(a, b, options, budget);

  ClsSimulator sa(a), sb(b);

  struct Entry {
    Trits state_a;
    Trits state_b;
    TritsSeq path;
  };
  std::unordered_set<PairKey, PairKeyHash> visited;
  std::deque<Entry> queue;

  Entry start{Trits(la, Trit::kX), Trits(lb, Trit::kX), {}};
  visited.insert(PairKey{pack_trits(start.state_a), pack_trits(start.state_b)});
  queue.push_back(std::move(start));

  ClsEquivalenceResult result;
  Trits out_a, out_b, next_a, next_b;
  while (!queue.empty()) {
    if (budget != nullptr && !budget->checkpoint("cls/bfs-pair")) {
      return exhausted_report(budget, visited.size());
    }
    const Entry entry = std::move(queue.front());
    queue.pop_front();
    for (std::uint64_t i = 0; i < branching; ++i) {
      // Wide-input designs spend most of their time in this inner loop, so
      // probe the budget between pair checkpoints too.
      if (budget != nullptr && (i & 1023u) == 1023u &&
          !budget->checkpoint("cls/bfs-input")) {
        return exhausted_report(budget, visited.size());
      }
      const Trits in = nth_ternary_vector(i, width);
      sa.eval(entry.state_a, in, out_a, next_a);
      sb.eval(entry.state_b, in, out_b, next_b);
      if (out_a != out_b) {
        result.equivalent = false;
        result.exhaustive = true;
        result.verdict = Verdict::kProven;
        result.pairs_explored = visited.size();
        TritsSeq cex = entry.path;
        cex.push_back(in);
        result.counterexample = std::move(cex);
        if (budget != nullptr) result.usage = budget->usage();
        return result;
      }
      const PairKey key{pack_trits(next_a), pack_trits(next_b)};
      if (visited.contains(key)) continue;
      if (visited.size() >= options.max_pairs) {
        // State space too large after all; fall back to sampling.
        return bounded_check(a, b, options, budget);
      }
      visited.insert(key);
      if (budget != nullptr && !budget->note_pairs(visited.size())) {
        // Budget pair cap (unlike the options.max_pairs heuristic above)
        // marks the whole budget exhausted, so degrade straight to the
        // partial report — bounded mode would be starved too.
        return exhausted_report(budget, visited.size());
      }
      Entry next{next_a, next_b, entry.path};
      next.path.push_back(in);
      queue.push_back(std::move(next));
    }
  }
  result.equivalent = true;
  result.exhaustive = true;
  result.verdict = Verdict::kProven;
  result.pairs_explored = visited.size();
  if (budget != nullptr) result.usage = budget->usage();
  return result;
}

}  // namespace

ClsEquivalenceResult check_cls_equivalence(const Netlist& a, const Netlist& b,
                                           const ClsEquivOptions& options,
                                           ResourceBudget* budget) {
  ClsEquivalenceResult result = explicit_engine(a, b, options, budget);
  result.decided_by = EquivalenceBackend::kExplicit;
  std::ostringstream os;
  switch (result.verdict) {
    case Verdict::kProven:
      if (result.counterexample) {
        os << "pair BFS found a counterexample after " << result.pairs_explored
           << " state pairs";
      } else {
        os << "pair-reachability BFS completed (" << result.pairs_explored
           << " state pairs)";
      }
      break;
    case Verdict::kBounded:
      if (result.counterexample) {
        os << "random sampling found a counterexample";
      } else {
        os << "random sampling completed without a difference";
      }
      break;
    case Verdict::kExhausted:
      os << "budget exhausted mid-search";
      break;
  }
  result.decided_reason = os.str();
  return result;
}

}  // namespace rtv
