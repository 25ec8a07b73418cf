#include "core/cls_equiv.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

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

namespace {

std::string plural(std::uint64_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

/// What a bounded check sampled, e.g. "200 sequences over 32 cycles".
std::string sampled_text(const ClsEquivalenceResult& r, const char* noun) {
  return plural(r.sampled_sequences, noun) + " over " +
         plural(r.sampled_cycles, "cycle");
}

/// The work a result covers: sampled sequences for the bounded sampler,
/// reached state pairs for everything else.
std::string work_text(const ClsEquivalenceResult& r) {
  return r.sampled_sequences > 0
             ? sampled_text(r, "random sequence")
             : std::to_string(r.pairs_explored) + " state pairs";
}

}  // namespace

std::string ClsEquivalenceResult::summary() const {
  std::ostringstream os;
  if (verdict == Verdict::kExhausted) {
    // An exhausted search decided nothing, whatever `equivalent` says.
    os << "CLS-UNDECIDED ("
       << (usage.exhausted ? "budget exhausted" : "inconclusive") << ", "
       << work_text(*this) << ")";
    return os.str();
  }
  // A refutation rests on its counterexample, however exhaustive the search.
  os << (equivalent ? "CLS-equivalent" : "CLS-DISTINGUISHABLE") << " ("
     << (!equivalent && counterexample ? "counterexample found"
         : exhaustive ? "exhaustive proof" : "bounded check")
     << ", " << work_text(*this) << ")";
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

/// A state pair as two base-3 latch codes (pack_trits order). Codes stay
/// below 3^40 < 2^64 - 1, so an all-ones `a` can mark an empty slot.
struct PairKey {
  std::uint64_t a;
  std::uint64_t b;
  bool operator==(const PairKey&) const = default;
};

/// Open-addressing set of visited pairs: one flat array probed linearly,
/// no node per entry. find() returns the key's slot or the empty slot
/// where it would go, so a caller can test, decide, then insert().
class PairSet {
 public:
  PairSet() : slots_(64, PairKey{kEmpty, 0}) {}

  std::size_t size() const { return size_; }

  std::size_t find(PairKey key) const {
    std::uint64_t h = key.a * 0x9e3779b97f4a7c15ULL ^ key.b;
    h = (h ^ (h >> 32)) * 0xbf58476d1ce4e5b9ULL;
    std::size_t slot =
        static_cast<std::size_t>(h ^ (h >> 29)) & (slots_.size() - 1);
    while (slots_[slot].a != kEmpty && !(slots_[slot] == key)) {
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return slot;
  }
  bool holds(std::size_t slot) const { return slots_[slot].a != kEmpty; }

  /// Inserts `key` at the empty slot find(key) returned.
  void insert(std::size_t slot, PairKey key) {
    slots_[slot] = key;
    if (++size_ * 2 <= slots_.size()) return;
    const std::vector<PairKey> old = std::exchange(
        slots_, std::vector<PairKey>(slots_.size() * 2, PairKey{kEmpty, 0}));
    for (const PairKey& k : old) {
      if (k.a != kEmpty) slots_[find(k)] = k;
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  std::vector<PairKey> slots_;
  std::size_t size_ = 0;
};

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
  const unsigned width = static_cast<unsigned>(a.primary_inputs().size());
  const unsigned outputs = static_cast<unsigned>(a.primary_outputs().size());
  const unsigned lanes = options.random_sequences;
  const unsigned length = options.random_length;
  result.sampled_sequences = lanes;
  if (lanes == 0 || length == 0) {
    result.equivalent = true;
    return result;
  }

  // Every draw in (sequence, cycle, input) order into one flat buffer:
  // the sampled sequences depend only on the seed, never on the layout.
  Rng rng(options.seed);
  std::vector<Trit> draws(static_cast<std::size_t>(lanes) * length * width);
  for (Trit& v : draws) v = static_cast<Trit>(rng.below(3));
  const auto draw = [&](unsigned lane, unsigned t) {
    return draws.data() +
           (static_cast<std::size_t>(lane) * length + t) * width;
  };

  PackedTernarySimulator sa(a, lanes), sb(b, lanes);
  PackedTrits cycle_inputs(width, lanes);
  const unsigned words = sa.words();
  for (unsigned t = 0; t < length; ++t) {
    if (budget != nullptr && !budget->checkpoint("cls/bounded-cycle")) {
      result.equivalent = true;  // nothing distinguished up to cycle t
      result.verdict = Verdict::kExhausted;
      result.usage = budget->usage();
      return result;
    }
    // Transposes cycle t into input planes, 64 lanes per word; tail lanes
    // stay definite-0.
    for (unsigned i = 0; i < width; ++i) {
      TritWord* dst = cycle_inputs.signal_words(i);
      for (unsigned w = 0; w < words; ++w) {
        std::uint64_t ones = 0, unk = 0;
        const unsigned end = std::min(lanes, 64 * w + 64);
        for (unsigned lane = 64 * w; lane < end; ++lane) {
          const Trit v = draw(lane, t)[i];
          ones |= std::uint64_t{v == Trit::kOne} << (lane % 64);
          unk |= std::uint64_t{v == Trit::kX} << (lane % 64);
        }
        dst[w] = TritWord{ones, unk};
      }
    }
    sa.step_packed(cycle_inputs);
    sb.step_packed(cycle_inputs);
    result.pairs_explored += lanes;
    result.sampled_cycles = t + 1;
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
        TritsSeq cex(t + 1);
        for (unsigned c = 0; c <= t; ++c) {
          cex[c].assign(draw(lane, c), draw(lane, c) + width);
        }
        result.counterexample = std::move(cex);
        if (budget != nullptr) result.usage = budget->usage();
        return result;
      }
    }
  }
  result.equivalent = true;
  if (budget != nullptr) result.usage = budget->usage();
  return result;
}

/// Exhaustive mode: BFS over ternary state pairs from (all-X, all-X).
///
/// The successors of the pairs found so far form one sequence in BFS
/// order: successor g is input vector g mod 3^I (base-3 digits, input 0
/// least significant) applied to pair g / 3^I. A batch is kBatchLanes
/// consecutive successors, one per lane of both packed simulators, so a
/// single step_packed evaluates them all; the lanes are then visited
/// strictly in order, doing exactly what the one-successor-at-a-time
/// search did at that successor (same checkpoints, same difference test,
/// same visited test, fallback and pair count). Verdicts, counterexamples,
/// pair counts and budget step counts therefore do not depend on the
/// batch width. States live in one flat trit table; a path is a chain of
/// (parent, input) links, unwound only for a counterexample.
class PairBfs {
 public:
  static constexpr unsigned kBatchLanes = 256;

  PairBfs(const Netlist& a, const Netlist& b, const ClsEquivOptions& options,
          ResourceBudget* budget)
      : a_(a),
        b_(b),
        options_(options),
        budget_(budget),
        width_(static_cast<unsigned>(a.primary_inputs().size())),
        branching_(pow3(width_)),
        la_(static_cast<unsigned>(a.latches().size())),
        lb_(static_cast<unsigned>(b.latches().size())),
        outputs_(static_cast<unsigned>(a.primary_outputs().size())),
        sa_(a, kBatchLanes),
        sb_(b, kBatchLanes),
        inputs_(width_, kBatchLanes) {}

  ClsEquivalenceResult run() {
    const PairKey start{pack_trits(Trits(la_, Trit::kX)),
                        pack_trits(Trits(lb_, Trit::kX))};
    add_pair(start, visited_.find(start), Link{0, 0});
    states_.assign(la_ + lb_, Trit::kX);

    std::uint64_t pair = 0, input = 0;  // the next successor to visit
    while (pair < links_.size()) {
      const std::uint64_t known = (links_.size() - pair) * branching_ - input;
      const unsigned count = static_cast<unsigned>(
          std::min<std::uint64_t>(kBatchLanes, known));
      evaluate_batch(pair, input, count);
      for (unsigned lane = 0; lane < count; ++lane) {
        if (budget_ != nullptr && input == 0 &&
            !budget_->checkpoint("cls/bfs-pair")) {
          return exhausted_report(budget_, visited_.size());
        }
        // Wide-input designs spend most of their time on one pair's
        // inputs, so probe the budget_ between pair checkpoints too.
        if (budget_ != nullptr && (input & 1023u) == 1023u &&
            !budget_->checkpoint("cls/bfs-input")) {
          return exhausted_report(budget_, visited_.size());
        }
        const std::uint64_t bit = 1ULL << (lane % 64);
        if ((diff_[lane / 64] & bit) != 0) {
          return distinguished(pair, input);
        }
        const PairKey key{key_a_[lane], key_b_[lane]};
        const std::size_t slot = visited_.find(key);
        if (!visited_.holds(slot)) {
          if (visited_.size() >= options_.max_pairs) {
            // State space too large after all; fall back to sampling.
            return bounded_check(a_, b_, options_, budget_);
          }
          add_pair(key, slot, Link{pair, static_cast<std::uint32_t>(input)});
          append_state(lane);
          if (budget_ != nullptr && !budget_->note_pairs(visited_.size())) {
            // Budget pair cap (unlike the options.max_pairs heuristic
            // above) marks the whole budget_ exhausted, so degrade straight
            // to the partial report — bounded mode would be starved too.
            return exhausted_report(budget_, visited_.size());
          }
        }
        if (++input == branching_) {
          input = 0;
          ++pair;
        }
      }
    }
    ClsEquivalenceResult result;
    result.equivalent = true;
    result.exhaustive = true;
    result.verdict = Verdict::kProven;
    result.pairs_explored = visited_.size();
    if (budget_ != nullptr) result.usage = budget_->usage();
    return result;
  }

 private:
  /// How a pair was first reached: the pair it came from and the input
  /// vector (as a base-3 index) applied there.
  struct Link {
    std::uint64_t parent;
    std::uint32_t input;
  };

  void add_pair(PairKey key, std::size_t slot, Link link) {
    visited_.insert(slot, key);
    links_.push_back(link);
  }

  /// Copies the latched state of `lane` into the state table.
  void append_state(unsigned lane) {
    for (unsigned l = 0; l < la_; ++l) {
      states_.push_back(get_trit(sa_.state_words(l)[lane / 64], lane % 64));
    }
    for (unsigned l = 0; l < lb_; ++l) {
      states_.push_back(get_trit(sb_.state_words(l)[lane / 64], lane % 64));
    }
  }

  /// Steps `count` successors, from input `input` of pair `pair` on, one
  /// per lane; leaves the output-difference plane in diff_ and both next
  /// states' codes in key_a_/key_b_.
  void evaluate_batch(std::uint64_t pair, std::uint64_t input,
                      unsigned count) {
    // Words past the last live lane keep stale planes; nothing reads them.
    const unsigned words = (count + 63) / 64;
    const std::uint64_t first = pair * branching_ + input;
    for (unsigned w = 0; w < words; ++w) {
      // Lanes [64w, hi) of this word, split into runs of one pair each.
      const unsigned hi = std::min(count, 64 * w + 64);
      for (unsigned l = 0; l < la_; ++l) sa_.state_words(l)[w] = TritWord{};
      for (unsigned l = 0; l < lb_; ++l) sb_.state_words(l)[w] = TritWord{};
      for (unsigned lane = 64 * w; lane < hi;) {
        const std::uint64_t g = first + lane;
        const std::uint64_t p = g / branching_;
        const unsigned end = static_cast<unsigned>(std::min<std::uint64_t>(
            hi, lane + (branching_ - g % branching_)));
        const std::uint64_t mask =
            low_mask(end - 64 * w) & ~low_mask(lane - 64 * w);
        const Trit* row = states_.data() + p * (la_ + lb_);
        load_run(sa_, la_, row, w, mask);
        load_run(sb_, lb_, row + la_, w, mask);
        lane = end;
      }
      load_inputs(first + 64 * w, w);
    }
    sa_.step_packed(inputs_);
    sb_.step_packed(inputs_);

    for (unsigned w = 0; w < words; ++w) {
      std::uint64_t diff = 0;
      for (unsigned o = 0; o < outputs_; ++o) {
        const TritWord x = sa_.output_words(o)[w];
        const TritWord y = sb_.output_words(o)[w];
        diff |= (x.ones ^ y.ones) | (x.unk ^ y.unk);
      }
      diff_[w] = diff;
      encode_keys(sa_, la_, w, &key_a_[64 * w]);
      encode_keys(sb_, lb_, w, &key_b_[64 * w]);
    }
  }

  /// Sets the lanes in `mask` of word `w` to the latch values in `row`.
  static void load_run(PackedTernarySimulator& sim, unsigned latches,
                       const Trit* row, unsigned w, std::uint64_t mask) {
    for (unsigned l = 0; l < latches; ++l) {
      TritWord& dst = sim.state_words(l)[w];
      if (row[l] == Trit::kOne) dst.ones |= mask;
      if (row[l] == Trit::kX) dst.unk |= mask;
    }
  }

  /// Input planes of word `w`, whose lane b carries successor g0 + b: input
  /// i is base-3 digit i of g (3^I divides the pair stride, so digits below
  /// I read g mod 3^I), constant over runs of 3^i consecutive lanes.
  void load_inputs(std::uint64_t g0, unsigned w) {
    std::uint64_t run = 1;
    for (unsigned i = 0; i < width_; ++i, run *= 3) {
      std::uint64_t ones = 0, unk = 0;
      unsigned digit = static_cast<unsigned>((g0 / run) % 3);
      std::uint64_t left = run - g0 % run;  // lanes before the digit moves
      for (unsigned lane = 0; lane < 64; digit = (digit + 1) % 3) {
        const unsigned end =
            static_cast<unsigned>(std::min<std::uint64_t>(64, lane + left));
        const std::uint64_t mask = low_mask(end) & ~low_mask(lane);
        if (digit == 1) ones |= mask;
        if (digit == 2) unk |= mask;
        lane = end;
        left = run;
      }
      inputs_.signal_words(i)[w] = TritWord{ones, unk};
    }
  }

  /// pack_trits codes of the 64 lanes' latched states in word `w`.
  static void encode_keys(PackedTernarySimulator& sim, unsigned latches,
                          unsigned w, std::uint64_t* keys) {
    std::fill(keys, keys + 64, 0);
    for (unsigned l = latches; l-- > 0;) {
      const TritWord v = sim.state_words(l)[w];
      for (unsigned b = 0; b < 64; ++b) {
        keys[b] = keys[b] * 3 + ((v.ones >> b) & 1) + ((v.unk >> b & 1) << 1);
      }
    }
  }

  /// The proof-mode counterexample: the input path to `pair`, then `input`.
  ClsEquivalenceResult distinguished(std::uint64_t pair,
                                     std::uint64_t input) const {
    TritsSeq cex{unpack_trits(input, width_)};
    for (std::uint64_t p = pair; p != 0; p = links_[p].parent) {
      cex.push_back(unpack_trits(links_[p].input, width_));
    }
    std::reverse(cex.begin(), cex.end());
    ClsEquivalenceResult result;
    result.equivalent = false;
    result.exhaustive = true;
    result.verdict = Verdict::kProven;
    result.pairs_explored = visited_.size();
    result.counterexample = std::move(cex);
    if (budget_ != nullptr) result.usage = budget_->usage();
    return result;
  }

  const Netlist& a_;
  const Netlist& b_;
  const ClsEquivOptions& options_;
  ResourceBudget* budget_;
  unsigned width_;
  std::uint64_t branching_;
  unsigned la_, lb_, outputs_;
  PackedTernarySimulator sa_, sb_;
  PackedTrits inputs_;
  PairSet visited_;
  std::vector<Link> links_;  ///< per pair, in discovery (= BFS) order
  std::vector<Trit> states_;  ///< per pair: a's latches, then b's
  std::uint64_t diff_[kBatchLanes / 64] = {};
  std::uint64_t key_a_[kBatchLanes] = {}, key_b_[kBatchLanes] = {};
};

ClsEquivalenceResult explicit_engine(const Netlist& a, const Netlist& b,
                                     const ClsEquivOptions& options,
                                     ResourceBudget* budget) {
  RTV_REQUIRE(a.primary_inputs().size() == b.primary_inputs().size(),
              "designs differ in primary input count");
  RTV_REQUIRE(a.primary_outputs().size() == b.primary_outputs().size(),
              "designs differ in primary output count");

  if (!pair_bfs_applies(a, b, options)) {
    return bounded_check(a, b, options, budget);
  }
  return PairBfs(a, b, options, budget).run();
}

}  // namespace

bool pair_bfs_applies(const Netlist& a, const Netlist& b,
                      const ClsEquivOptions& options) {
  const std::size_t width = a.primary_inputs().size();
  // pow3_saturating clamps to UINT64_MAX past 3^40, so a wide-input design
  // can never wrap around the comparison and get routed into the
  // exhaustive enumeration it could not possibly finish.
  return width <= 12 && a.latches().size() <= 40 && b.latches().size() <= 40 &&
         pow3_saturating(static_cast<unsigned>(width)) <= options.max_branching;
}

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
      os << "random sampling of " << sampled_text(result, "sequence")
         << (result.counterexample ? " found a counterexample"
                                   : " completed without a difference");
      break;
    case Verdict::kExhausted:
      os << "budget exhausted mid-search";
      break;
  }
  result.decided_reason = os.str();
  return result;
}

}  // namespace rtv
