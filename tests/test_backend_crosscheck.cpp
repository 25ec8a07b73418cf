// Backend cross-check suite: the explicit, BDD, and SAT engines (and the
// portfolio racing the last two) must tell the same story on the same
// query — equivalent retimed pairs stay equivalent under every backend,
// inequivalent pairs yield a definitive verdict with a *replayable*
// counterexample from every backend, and a fault-injected budget trip
// degrades any backend to an honestly-labeled bounded/exhausted report
// without poisoning the portfolio.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/safety.hpp"
#include "core/verify.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/rnl_format.hpp"
#include "retime/apply.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "sim/cls_sim.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;
using testing::random_legal_lag;
using testing::toggle_circuit;
using testing::wide_pipeline;

constexpr EquivalenceBackend kAllBackends[] = {
    EquivalenceBackend::kExplicit,
    EquivalenceBackend::kBdd,
    EquivalenceBackend::kSat,
    EquivalenceBackend::kPortfolio,
};

/// inverter_pipeline with the NOT replaced by a BUF — CLS-distinguishable
/// from cycle 2 on, so every backend must find a counterexample.
Netlist buffer_pipeline() {
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId l0 = n.add_latch("L0");
  const NodeId l1 = n.add_latch("L1");
  const NodeId b = n.add_gate(CellKind::kBuf, 0, "b");
  n.connect(in, l0);
  n.connect(l0, b);
  n.connect(b, l1);
  n.connect(PortRef(l1, 0), PinRef(out, 0));
  n.check_valid(true);
  return n;
}

ClsEquivalenceResult run_backend(EquivalenceBackend backend, const Netlist& a,
                                 const Netlist& b,
                                 ResourceBudget* budget = nullptr,
                                 bool allow_static_proof = true) {
  VerifyOptions opt;
  opt.backend = backend;
  opt.allow_static_proof = allow_static_proof;
  return verify_cls_equivalence(a, b, opt, budget);
}

TEST(BackendCrosscheck, AllBackendsAgreeOnRandomRetimedPairs) {
  // Corollary 5.3 instances: every backend must report the retimed design
  // CLS-equivalent to the original — any counterexample anywhere is a bug
  // in that engine (the dispatcher would even reject it as non-replaying).
  Rng rng(909);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 14;
  opt.latch_after_gate_probability = 0.3;
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const std::vector<int> lag = random_legal_lag(g, rng);
    SequencedRetiming seq;
    analyze_lag_retiming(n, g, lag, &seq);
    for (const EquivalenceBackend backend : kAllBackends) {
      SCOPED_TRACE(std::string("trial ") + std::to_string(trial) +
                   " backend " + to_string(backend));
      const ClsEquivalenceResult r = run_backend(backend, n, seq.retimed);
      EXPECT_TRUE(r.equivalent) << r.summary();
      EXPECT_FALSE(r.counterexample.has_value());
      // Without a budget nothing can run out: the verdict is a completed
      // proof or a completed bounded analysis (k-induction need not close
      // on arbitrary pairs, so kBounded is acceptable for SAT).
      EXPECT_NE(r.verdict, Verdict::kExhausted) << r.summary();
      EXPECT_FALSE(r.decided_reason.empty());
    }
  }
}

TEST(BackendCrosscheck, AllBackendsProveIdenticalDesignsEquivalent) {
  const Netlist n = toggle_circuit();
  for (const EquivalenceBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const ClsEquivalenceResult r = run_backend(backend, n, n);
    EXPECT_TRUE(r.equivalent) << r.summary();
    EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
    EXPECT_TRUE(r.exhaustive);
  }
}

/// One input (unused) and one output tied to a constant cell.
Netlist constant_design(bool value) {
  Netlist n;
  n.add_input("in");
  const NodeId out = n.add_output("out");
  n.connect(n.add_const(value), out);
  n.check_valid(true);
  return n;
}

TEST(BackendCrosscheck, SatAndPortfolioRefuteConst0AgainstConst1) {
  // The SAT encoding must map AIG constant literal 0 to false: with it
  // inverted both outputs read the same flipped constant and k-induction
  // "proves" the pair equivalent at k = 0.
  const Netlist zero = constant_design(false);
  const Netlist one = constant_design(true);
  for (const EquivalenceBackend backend :
       {EquivalenceBackend::kSat, EquivalenceBackend::kPortfolio}) {
    SCOPED_TRACE(to_string(backend));
    const ClsEquivalenceResult r = run_backend(backend, zero, one);
    EXPECT_FALSE(r.equivalent) << r.summary();
    EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_FALSE(cls_outputs_match(zero, one, *r.counterexample));
  }
}

TEST(BackendCrosscheck, SatProvesMuxSelectSelfPair) {
  // examples/mux_select.rnl: the CLS dual-rail encoding of a mux uses AIG
  // constants, so an inverted constant yields spurious counterexamples.
  const Netlist n = read_rnl(
      "rnl 1\n"
      "node s input\nnode a input\nnode b input\nnode out output\n"
      "node m mux\n"
      "wire s.0 m.0\nwire a.0 m.1\nwire b.0 m.2\nwire m.0 out.0\n");
  const ClsEquivalenceResult r =
      run_backend(EquivalenceBackend::kSat, n, n, nullptr,
                  /*allow_static_proof=*/false);
  EXPECT_TRUE(r.equivalent) << r.summary();
  EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
  EXPECT_EQ(r.decided_by, EquivalenceBackend::kSat);
}

TEST(BackendCrosscheck, BddAndSatAgreeOnDesignsWithConstantCells) {
  // Min-period retiming of a pipelined multiplier: constant cells feed the
  // partial-product array on both sides of the pair. (pipelined_multiplier
  // (4, 1) has the same shape but exceeds the BDD engine's latch cap.)
  const Netlist n = pipelined_multiplier(2, 1);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const Netlist retimed = apply_retiming(n, g, min_period_retime_feas(g).lag);
  const ClsEquivalenceResult bdd = run_backend(EquivalenceBackend::kBdd, n,
                                               retimed, nullptr, false);
  const ClsEquivalenceResult sat = run_backend(EquivalenceBackend::kSat, n,
                                               retimed, nullptr, false);
  ASSERT_EQ(bdd.verdict, Verdict::kProven) << bdd.summary();
  EXPECT_TRUE(bdd.equivalent) << bdd.summary();
  EXPECT_EQ(sat.equivalent, bdd.equivalent)
      << "bdd: " << bdd.summary() << "\nsat: " << sat.summary();
  EXPECT_EQ(sat.verdict, Verdict::kProven) << sat.summary();
}

TEST(BackendCrosscheck, AllBackendsFindReplayableCounterexamples) {
  const Netlist a = inverter_pipeline();
  const Netlist b = buffer_pipeline();
  for (const EquivalenceBackend backend : kAllBackends) {
    SCOPED_TRACE(to_string(backend));
    const ClsEquivalenceResult r = run_backend(backend, a, b);
    EXPECT_FALSE(r.equivalent) << r.summary();
    EXPECT_EQ(r.verdict, Verdict::kProven)
        << "a counterexample is definitive: " << r.summary();
    ASSERT_TRUE(r.counterexample.has_value());
    // Every backend's witness must replay on the concrete CLS simulators.
    EXPECT_FALSE(cls_outputs_match(a, b, *r.counterexample));
    // And the report names it as the evidence, not a proof or a bound.
    EXPECT_TRUE(r.summary().starts_with(
        "CLS-DISTINGUISHABLE (counterexample found, "))
        << r.summary();
  }
}

TEST(BackendCrosscheck, PortfolioStampsTheDecidingEngine) {
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kPortfolio;
  // This test exists to exercise the stage and race machinery; keep the
  // static fixpoint proof from short-circuiting it.
  opt.allow_static_proof = false;

  // One input: the explicit stage decides on the calling thread.
  const Netlist narrow = toggle_circuit();
  const ClsEquivalenceResult staged =
      verify_cls_equivalence(narrow, narrow, opt);
  EXPECT_TRUE(staged.equivalent);
  EXPECT_EQ(staged.verdict, Verdict::kProven);
  EXPECT_EQ(staged.decided_by, EquivalenceBackend::kExplicit);
  EXPECT_EQ(staged.decided_reason.rfind("portfolio: ", 0), 0u)
      << staged.decided_reason;

  // Seven inputs: no stage, the race winner is stamped.
  const Netlist wide = wide_pipeline();
  const ClsEquivalenceResult raced = verify_cls_equivalence(wide, wide, opt);
  EXPECT_TRUE(raced.equivalent);
  EXPECT_EQ(raced.verdict, Verdict::kProven);
  EXPECT_TRUE(raced.decided_by == EquivalenceBackend::kBdd ||
              raced.decided_by == EquivalenceBackend::kSat)
      << to_string(raced.decided_by);
  EXPECT_EQ(raced.decided_reason.rfind("portfolio: ", 0), 0u)
      << raced.decided_reason;
}

TEST(BackendCrosscheck, PortfolioUsageUnderABudgetCountsTheEngines) {
  // Under a caller budget the portfolio used to report that budget alone:
  // the babysitting loop's few checkpoints and none of the engines' work.
  // A seven-input design, so the race (not the explicit stage) decides.
  const Netlist n = wide_pipeline();
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kPortfolio;
  opt.allow_static_proof = false;
  ResourceBudget budget;
  const ClsEquivalenceResult r = verify_cls_equivalence(n, n, opt, &budget);
  ASSERT_EQ(r.verdict, Verdict::kProven);
  EXPECT_GT(r.usage.steps, budget.usage().steps);
  EXPECT_FALSE(r.usage.exhausted);
}

/// Shared well-formedness bar for fault-injected runs on an *equivalent*
/// pair: whatever tripped, the report must never claim inequivalence, never
/// carry a counterexample, and must label exhaustion honestly.
void expect_degraded_honestly(const ClsEquivalenceResult& r,
                              std::uint64_t trip) {
  SCOPED_TRACE("injection at checkpoint " + std::to_string(trip));
  EXPECT_TRUE(r.equivalent) << r.summary();
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.exhaustive, r.verdict == Verdict::kProven);
  EXPECT_TRUE(r.verdict == Verdict::kProven ||
              r.verdict == Verdict::kBounded ||
              r.verdict == Verdict::kExhausted);
  EXPECT_FALSE(r.decided_reason.empty());
}

TEST(BackendCrosscheckFaultSweep, SatDegradesToBoundedOrExhausted) {
  // Retimed (hence equivalent) pair, SAT backend, budget attached. Census
  // first, then trip every single checkpoint the run passes.
  const Netlist a = inverter_pipeline();
  Rng rng(5);
  const RetimeGraph g = RetimeGraph::from_netlist(a);
  SequencedRetiming seq;
  analyze_lag_retiming(a, g, random_legal_lag(g, rng), &seq);
  const Netlist& b = seq.retimed;

  fault_inject::arm(std::uint64_t{1} << 62);
  {
    ResourceBudget budget((ResourceLimits()));
    const ClsEquivalenceResult r =
        run_backend(EquivalenceBackend::kSat, a, b, &budget);
    EXPECT_TRUE(r.equivalent) << r.summary();
  }
  const std::uint64_t total = fault_inject::checkpoints_passed();
  fault_inject::disarm();
  ASSERT_GT(total, 0u) << "SAT run passed no checkpoints; sweep is vacuous";

  for (std::uint64_t n = 1; n <= total; ++n) {
    fault_inject::arm(n);
    ResourceBudget budget((ResourceLimits()));
    ClsEquivalenceResult r;
    ASSERT_NO_THROW(r = run_backend(EquivalenceBackend::kSat, a, b, &budget))
        << "injection at checkpoint " << n;
    fault_inject::disarm();
    expect_degraded_honestly(r, n);
  }
}

TEST(BackendCrosscheckFaultSweep, PortfolioIsNotPoisonedByTrippedEngines) {
  // A fault tripping inside the explicit stage or one (or both) race
  // engines must never crash the portfolio, produce a verdict
  // disagreement, or surface a bogus counterexample; the merged report
  // stays honest. Static proof off: the sweep must reach the stage and the
  // engines, not a fixpoint short-circuit. The toggle is narrow enough for
  // the stage (a trip there hands the query to the race); the seven-input
  // pipeline goes straight to the race.
  for (const Netlist& n : {toggle_circuit(), wide_pipeline()}) {
    SCOPED_TRACE(std::to_string(n.primary_inputs().size()) + " inputs");
    fault_inject::arm(std::uint64_t{1} << 62);
    {
      ResourceBudget budget((ResourceLimits()));
      const ClsEquivalenceResult r =
          run_backend(EquivalenceBackend::kPortfolio, n, n, &budget,
                      /*allow_static=*/false);
      EXPECT_TRUE(r.equivalent) << r.summary();
    }
    const std::uint64_t total = fault_inject::checkpoints_passed();
    fault_inject::disarm();
    ASSERT_GT(total, 0u);

    for (std::uint64_t trip = 1; trip <= total; ++trip) {
      fault_inject::arm(trip);
      ResourceBudget budget((ResourceLimits()));
      ClsEquivalenceResult r;
      ASSERT_NO_THROW(r = run_backend(EquivalenceBackend::kPortfolio, n, n,
                                      &budget, /*allow_static=*/false))
          << "injection at checkpoint " << trip;
      fault_inject::disarm();
      expect_degraded_honestly(r, trip);
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit-engine parity: the packed pair BFS and the bounded sampler
// against scalar references built on ClsSimulator.
// ---------------------------------------------------------------------------

struct PairKey {
  std::uint64_t a, b;
  bool operator==(const PairKey&) const = default;
};
struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return static_cast<std::size_t>(k.a * 0x9e3779b97f4a7c15ULL ^ k.b);
  }
};

/// The one-successor-at-a-time pair BFS the packed engine must reproduce:
/// pairs popped FIFO from (all-X, all-X), each pair's 3^I input vectors
/// tried in base-3 order with one ClsSimulator::eval per design, the
/// budget probed at the same successors. The engine must match it field
/// for field, so any change to the successor order shows up here.
ClsEquivalenceResult reference_pair_bfs(const Netlist& a, const Netlist& b,
                                        const ClsEquivOptions& options,
                                        ResourceBudget* budget) {
  const unsigned width = static_cast<unsigned>(a.primary_inputs().size());
  const unsigned la = static_cast<unsigned>(a.latches().size());
  const unsigned lb = static_cast<unsigned>(b.latches().size());
  const std::uint64_t branching = pow3_saturating(width);
  ClsEquivOptions sampled = options;
  sampled.max_branching = 0;  // routes check_cls_equivalence to sampling
  if (width > 12 || la > 40 || lb > 40 || branching > options.max_branching) {
    return check_cls_equivalence(a, b, sampled, budget);
  }
  struct Entry {
    Trits state_a, state_b;
    TritsSeq path;
  };
  std::unordered_set<PairKey, PairKeyHash> visited;
  std::deque<Entry> queue;
  queue.push_back({Trits(la, Trit::kX), Trits(lb, Trit::kX), {}});
  visited.insert({pack_trits(queue.front().state_a),
                  pack_trits(queue.front().state_b)});

  ClsEquivalenceResult r;
  r.equivalent = true;
  r.exhaustive = true;
  r.verdict = Verdict::kProven;
  const auto finish = [&](std::string reason) {
    r.pairs_explored = visited.size();
    if (budget != nullptr) r.usage = budget->usage();
    r.decided_reason = std::move(reason);
    return r;
  };
  const auto exhausted = [&] {
    r.exhaustive = false;
    r.verdict = Verdict::kExhausted;
    return finish("budget exhausted mid-search");
  };
  const ClsSimulator sa(a), sb(b);
  Trits out_a, out_b, next_a, next_b;
  while (!queue.empty()) {
    if (budget != nullptr && !budget->checkpoint("cls/bfs-pair")) {
      return exhausted();
    }
    const Entry entry = std::move(queue.front());
    queue.pop_front();
    for (std::uint64_t i = 0; i < branching; ++i) {
      if (budget != nullptr && (i & 1023u) == 1023u &&
          !budget->checkpoint("cls/bfs-input")) {
        return exhausted();
      }
      const Trits in = unpack_trits(i, width);
      sa.eval(entry.state_a, in, out_a, next_a);
      sb.eval(entry.state_b, in, out_b, next_b);
      if (out_a != out_b) {
        r.equivalent = false;
        r.counterexample = entry.path;
        r.counterexample->push_back(in);
        return finish("pair BFS found a counterexample after " +
                      std::to_string(visited.size()) + " state pairs");
      }
      const PairKey key{pack_trits(next_a), pack_trits(next_b)};
      if (visited.contains(key)) continue;
      if (visited.size() >= options.max_pairs) {
        return check_cls_equivalence(a, b, sampled, budget);
      }
      visited.insert(key);
      if (budget != nullptr && !budget->note_pairs(visited.size())) {
        return exhausted();
      }
      queue.push_back({next_a, next_b, entry.path});
      queue.back().path.push_back(in);
    }
  }
  return finish("pair-reachability BFS completed (" +
                std::to_string(visited.size()) + " state pairs)");
}

/// Scalar replay of bounded mode: the same Rng draws in the same order
/// (sequence, cycle, input), every sequence on its own ClsSimulator pair,
/// and a difference reported at the earliest cycle, then the lowest
/// output, then the lowest sequence — the order the packed sampler scans.
ClsEquivalenceResult reference_bounded(const Netlist& a, const Netlist& b,
                                       const ClsEquivOptions& options) {
  const unsigned width = static_cast<unsigned>(a.primary_inputs().size());
  const unsigned lanes = options.random_sequences;
  const unsigned length = options.random_length;
  Rng rng(options.seed);
  std::vector<TritsSeq> seqs(lanes, TritsSeq(length, Trits(width)));
  for (TritsSeq& seq : seqs) {
    for (Trits& in : seq) {
      for (Trit& v : in) v = static_cast<Trit>(rng.below(3));
    }
  }
  std::vector<ClsSimulator> sa, sb;
  for (unsigned s = 0; s < lanes; ++s) {
    sa.emplace_back(a);
    sb.emplace_back(b);
  }
  ClsEquivalenceResult r;
  r.equivalent = true;
  r.verdict = Verdict::kBounded;
  r.sampled_sequences = lanes;
  std::vector<Trits> out_a(lanes), out_b(lanes);
  for (unsigned t = 0; t < length; ++t) {
    for (unsigned s = 0; s < lanes; ++s) {
      out_a[s] = sa[s].step(seqs[s][t]);
      out_b[s] = sb[s].step(seqs[s][t]);
    }
    r.sampled_cycles = t + 1;
    r.pairs_explored = static_cast<std::size_t>(lanes) * (t + 1);
    for (std::size_t o = 0; o < a.primary_outputs().size(); ++o) {
      for (unsigned s = 0; s < lanes; ++s) {
        if (out_a[s][o] == out_b[s][o]) continue;
        r.equivalent = false;
        r.counterexample = TritsSeq(seqs[s].begin(), seqs[s].begin() + t + 1);
        return r;
      }
    }
  }
  return r;
}

/// Swaps the kind of the first primitive gate in the .rnl text (and<->or,
/// nand<->nor, xor<->xnor, not<->buf): the same structure, usually a
/// different function. Returns the design unchanged when it has no such
/// gate.
Netlist swap_first_gate_kind(const Netlist& n) {
  static const std::pair<std::string, std::string> kSwaps[] = {
      {"and", "or"}, {"or", "and"},   {"nand", "nor"}, {"nor", "nand"},
      {"xor", "xnor"}, {"xnor", "xor"}, {"not", "buf"}, {"buf", "not"}};
  std::istringstream in(write_rnl(n));
  std::ostringstream out;
  std::string line;
  bool swapped = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string tag, name, kind, rest;
    words >> tag >> name >> kind;
    std::getline(words, rest);
    for (const auto& [from, to] : kSwaps) {
      if (swapped || tag != "node" || kind != from) continue;
      line = tag + " " + name + " " + to + rest;
      swapped = true;
      break;
    }
    out << line << '\n';
  }
  return read_rnl(out.str());
}

/// A seeded random design of exactly `width` primary inputs (width 0: the
/// generator's one input becomes a constant cell).
Netlist random_design(unsigned width, unsigned latches, bool tables,
                      Rng& rng) {
  RandomCircuitOptions opt;
  opt.num_inputs = std::max(width, 1u);
  opt.num_outputs = 2;
  opt.num_gates = 3 + static_cast<unsigned>(rng.below(7));
  opt.num_latches = latches;
  opt.latch_after_gate_probability = 0.0;
  opt.table_probability = tables ? 0.3 : 0.0;
  const Netlist n = random_netlist(opt, rng);
  if (width > 0) return n;
  std::string text = write_rnl(n);
  const std::string input = "node pi0 input";
  text.replace(text.find(input), input.size(),
               rng.coin() ? "node pi0 const1" : "node pi0 const0");
  return read_rnl(text);
}

/// A random legal retiming of `a`; with `mutate`, the same retiming of
/// a's one-gate mutant, so the pair is usually distinguishable, and only
/// after the retimed latches fill up.
Netlist retimed_or_mutated(const Netlist& a, bool mutate, Rng& rng) {
  const RetimeGraph g = RetimeGraph::from_netlist(a);
  const std::vector<int> lag = random_legal_lag(g, rng, 20);
  const Netlist source = mutate ? swap_first_gate_kind(a) : a;
  SequencedRetiming seq;
  analyze_lag_retiming(source, RetimeGraph::from_netlist(source), lag, &seq);
  return seq.retimed;
}

void expect_same_result(const ClsEquivalenceResult& got,
                        const ClsEquivalenceResult& want) {
  EXPECT_EQ(got.equivalent, want.equivalent) << got.summary();
  EXPECT_EQ(got.verdict, want.verdict) << got.summary();
  EXPECT_EQ(got.exhaustive, want.exhaustive) << got.summary();
  EXPECT_EQ(got.pairs_explored, want.pairs_explored) << got.summary();
  EXPECT_EQ(got.counterexample, want.counterexample) << got.summary();
  EXPECT_EQ(got.usage.steps, want.usage.steps) << got.summary();
}

TEST(ExplicitParity, PackedPairBfsMatchesTheScalarReference) {
  // Widths 0-6 (3^6 = 729 successors span several batches), 0-8 latches,
  // table cells in a third of the designs, retimed and unrelated pairs;
  // each searched to the end, under three step quotas, under a budget pair
  // cap and with a max_pairs small enough to force the fallback to
  // sampling. Every field must match, usage.steps included, so reordering
  // the successors or the checkpoints fails here.
  Rng rng(2024);
  int cex = 0, proofs = 0, fallbacks = 0, exhausted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned width = static_cast<unsigned>(trial % 7);
    const unsigned latches = static_cast<unsigned>(rng.below(9));
    const Netlist a = random_design(width, latches, trial % 3 == 0, rng);
    const Netlist b = retimed_or_mutated(a, trial % 2 == 1, rng);

    struct Variant {
      std::string name;
      ResourceLimits limits;
      std::size_t max_pairs;
      bool governed;
    };
    ResourceLimits pair_cap;
    pair_cap.pair_limit = 5;
    // Odd trials run under an unlimited budget, so whole searches compare
    // their step counts too.
    std::vector<Variant> variants = {
        {"full search", {}, 20000, trial % 2 == 1},
        {"pair_limit 5", pair_cap, 20000, true},
        {"max_pairs 7", {}, 7, true}};
    // Two fixed quotas and one random one, so the trip lands on every
    // kind of checkpoint (pair, input, bounded cycle) across the sweep.
    for (const std::uint64_t quota : {std::uint64_t{5}, std::uint64_t{40},
                                      41 + rng.below(260)}) {
      ResourceLimits l;
      l.step_quota = quota;
      variants.push_back({"step quota " + std::to_string(quota), l, 20000,
                          true});
    }
    for (const Variant& v : variants) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " width " +
                   std::to_string(width) + " " + v.name);
      ClsEquivOptions opt;
      opt.max_pairs = v.max_pairs;
      opt.random_sequences = 16;
      opt.random_length = 8;
      ResourceBudget got_budget(v.limits), want_budget(v.limits);
      const ClsEquivalenceResult got = check_cls_equivalence(
          a, b, opt, v.governed ? &got_budget : nullptr);
      const ClsEquivalenceResult want = reference_pair_bfs(
          a, b, opt, v.governed ? &want_budget : nullptr);
      expect_same_result(got, want);
      EXPECT_EQ(got.decided_reason, want.decided_reason);
      cex += got.counterexample.has_value() && got.verdict == Verdict::kProven;
      proofs += got.equivalent && got.verdict == Verdict::kProven;
      fallbacks += got.verdict == Verdict::kBounded;
      exhausted += got.verdict == Verdict::kExhausted;
    }
  }
  // The sweep must reach every outcome, or it checks less than it claims.
  EXPECT_GT(cex, 50);
  EXPECT_GT(proofs, 50);
  EXPECT_GT(fallbacks, 50);
  EXPECT_GT(exhausted, 50);
}

TEST(ExplicitParity, BoundedSamplingMatchesAScalarReplay) {
  // 1, 63, 64, 65 and 200 sequences: one lane, a word less one, a whole
  // word, a word plus a one-lane tail, several words. A slip in the tail
  // mask or in the draw order changes which lane distinguishes first.
  Rng rng(77);
  int cex = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Netlist a = random_design(3 + trial % 4, 4, trial % 3 == 0, rng);
    const Netlist b = retimed_or_mutated(a, trial % 2 == 1, rng);
    for (const unsigned lanes : {1u, 63u, 64u, 65u, 200u}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " lanes " +
                   std::to_string(lanes));
      ClsEquivOptions opt;
      opt.max_branching = 0;
      opt.random_sequences = lanes;
      opt.random_length = 12;
      opt.seed = 1000 + static_cast<std::uint64_t>(trial);
      const ClsEquivalenceResult got = check_cls_equivalence(a, b, opt);
      const ClsEquivalenceResult want = reference_bounded(a, b, opt);
      expect_same_result(got, want);
      EXPECT_EQ(got.sampled_sequences, want.sampled_sequences);
      EXPECT_EQ(got.sampled_cycles, want.sampled_cycles);
      cex += got.counterexample.has_value();
    }
  }
  EXPECT_GT(cex, 10);
}

TEST(ExplicitParity, BoundedCounterexampleIsPinned) {
  // The min-area retiming of pipelined_multiplier(4, 1) breaks Cor 5.3's
  // premise (its constant cells are not justifiable), and with 80+
  // latches the default options sample it. The sampled sequences, hence
  // this counterexample, must not change with the sampler's layout.
  const Netlist n = pipelined_multiplier(4, 1);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const Netlist retimed = apply_retiming(n, g, min_area_retime(g).lag);
  const ClsEquivalenceResult r = check_cls_equivalence(n, retimed);
  ASSERT_FALSE(r.equivalent) << r.summary();
  EXPECT_EQ(r.verdict, Verdict::kBounded);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(sequence_to_string(*r.counterexample), "011X1111");
}

// ---------------------------------------------------------------------------
// Staged portfolio: the explicit stage in front of the BDD/SAT race.
// ---------------------------------------------------------------------------

VerifyOptions portfolio_options() {
  VerifyOptions opt;
  opt.backend = EquivalenceBackend::kPortfolio;
  opt.allow_static_proof = false;  // reach the stage, not the fixpoint
  return opt;
}

TEST(StagedPortfolio, AgreesWithEveryEngineOnNarrowPairs) {
  // 0-6 inputs and 0-8 latches, table cells in a third of the designs,
  // retimed and single-gate-mutant pairs alternating. The portfolio must
  // conclude, agree with the standalone explicit engine, and agree with
  // SAT and BDD wherever they conclude; every counterexample must replay.
  Rng rng(1616);
  int staged = 0, distinguished = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const unsigned width = static_cast<unsigned>(trial % 7);
    const unsigned latches = static_cast<unsigned>(rng.below(9));
    const Netlist a = random_design(width, latches, trial % 3 == 0, rng);
    const Netlist b = retimed_or_mutated(a, trial % 2 == 1, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " width " +
                 std::to_string(width));

    const ClsEquivalenceResult portfolio =
        verify_cls_equivalence(a, b, portfolio_options());
    const ClsEquivalenceResult oracle =
        run_backend(EquivalenceBackend::kExplicit, a, b, nullptr, false);
    ASSERT_EQ(oracle.verdict, Verdict::kProven) << oracle.summary();
    ASSERT_EQ(portfolio.verdict, Verdict::kProven) << portfolio.summary();
    EXPECT_EQ(portfolio.equivalent, oracle.equivalent)
        << portfolio.decided_reason;
    for (const EquivalenceBackend engine :
         {EquivalenceBackend::kSat, EquivalenceBackend::kBdd}) {
      const ClsEquivalenceResult r = run_backend(engine, a, b, nullptr, false);
      if (r.verdict != Verdict::kProven) continue;
      EXPECT_EQ(r.equivalent, oracle.equivalent)
          << to_string(engine) << ": " << r.summary();
      if (r.counterexample) {
        EXPECT_FALSE(cls_outputs_match(a, b, *r.counterexample));
      }
    }
    for (const ClsEquivalenceResult* r : {&portfolio, &oracle}) {
      EXPECT_EQ(r->counterexample.has_value(), !r->equivalent);
      if (r->counterexample) {
        EXPECT_FALSE(cls_outputs_match(a, b, *r->counterexample));
      }
    }
    staged += portfolio.decided_by == EquivalenceBackend::kExplicit;
    distinguished += !oracle.equivalent;
  }
  // Small pairs fit the allowance, so the stage must decide nearly all of
  // them, and the mutants must supply real refutations.
  EXPECT_GT(staged, 280);
  EXPECT_GT(distinguished, 50);
}

TEST(StagedPortfolio, HandsAnOverAllowanceSearchToTheRace) {
  // shift_register(12) has one input but 3^12 reachable state pairs
  // against its retiming: the stage stops at its 4096-pair allowance and
  // the race decides, on the rest of a caller budget it never exhausted.
  const Netlist n = shift_register(12);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const Netlist retimed = apply_retiming(n, g, min_area_retime(g).lag);
  ResourceBudget budget;
  const ClsEquivalenceResult r =
      verify_cls_equivalence(n, retimed, portfolio_options(), &budget);
  EXPECT_TRUE(r.equivalent) << r.summary();
  EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
  EXPECT_TRUE(r.decided_by == EquivalenceBackend::kSat ||
              r.decided_by == EquivalenceBackend::kBdd)
      << to_string(r.decided_by) << ": " << r.decided_reason;
  EXPECT_GE(r.usage.state_pairs, 4096u) << r.usage.summary();
  EXPECT_FALSE(r.usage.exhausted) << r.usage.summary();
  EXPECT_FALSE(budget.exhausted());
}

TEST(StagedPortfolio, HonoursACancelledTokenAndAnExpiredDeadline) {
  // Both pairs are narrow, so the stage would prove or refute them in
  // microseconds if it ignored the caller's token or deadline.
  const Netlist a = inverter_pipeline();
  const Netlist mutant = buffer_pipeline();
  CancellationToken cancelled;
  cancelled.request_cancel();
  for (const bool use_deadline : {false, true}) {
    for (const Netlist* b : {&a, &mutant}) {
      SCOPED_TRACE(std::string(use_deadline ? "expired deadline"
                                            : "cancelled token") +
                   (b == &a ? ", self pair" : ", mutant pair"));
      ResourceBudget budget = ResourceBudget::with_deadline(
          ResourceLimits{}, use_deadline ? CancellationToken{} : cancelled,
          use_deadline ? std::optional(std::chrono::steady_clock::now() -
                                       std::chrono::milliseconds(1))
                       : std::nullopt);
      const ClsEquivalenceResult r =
          verify_cls_equivalence(a, *b, portfolio_options(), &budget);
      EXPECT_NE(r.verdict, Verdict::kProven) << r.summary();
      EXPECT_FALSE(r.exhaustive);
      EXPECT_FALSE(r.counterexample.has_value()) << r.summary();
      EXPECT_TRUE(r.usage.exhausted) << r.usage.summary();
    }
  }
}

/// The stage's sampling reason; the trailing cycle count varies.
constexpr char kSamplingReason[] =
    "portfolio: explicit stage: random sampling of 64 sequences over ";

bool decided_by_sampling(const ClsEquivalenceResult& r) {
  return r.decided_by == EquivalenceBackend::kExplicit &&
         r.decided_reason.rfind(kSamplingReason, 0) == 0;
}

TEST(StagedPortfolio, RefutesWidePairsBySampling) {
  // 7-16 inputs: past the pair BFS's width, so sampling is the stage's only
  // tool. Whatever it decides must be a refutation with a replayable
  // counterexample that neither SAT nor BDD contradicts.
  Rng rng(2525);
  int refuted = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const unsigned width = 7 + static_cast<unsigned>(trial % 10);
    const Netlist a = random_design(width, static_cast<unsigned>(rng.below(9)),
                                    trial % 3 == 0, rng);
    const Netlist b = retimed_or_mutated(a, trial % 2 == 1, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " width " +
                 std::to_string(width));
    const ClsEquivalenceResult r =
        verify_cls_equivalence(a, b, portfolio_options());
    if (r.decided_by != EquivalenceBackend::kExplicit) continue;
    ++refuted;
    EXPECT_TRUE(decided_by_sampling(r)) << r.decided_reason;
    EXPECT_TRUE(r.decided_reason.ends_with(" found a counterexample"))
        << r.decided_reason;
    EXPECT_EQ(r.verdict, Verdict::kProven) << r.summary();
    EXPECT_TRUE(r.exhaustive);
    EXPECT_FALSE(r.equivalent) << r.summary();
    ASSERT_TRUE(r.counterexample.has_value()) << r.summary();
    EXPECT_NE(r.summary().find("(counterexample found, 64 random sequences"),
              std::string::npos)
        << r.summary();
    EXPECT_FALSE(cls_outputs_match(a, b, *r.counterexample));
    for (const EquivalenceBackend engine :
         {EquivalenceBackend::kSat, EquivalenceBackend::kBdd}) {
      const ClsEquivalenceResult e = run_backend(engine, a, b, nullptr, false);
      EXPECT_FALSE(e.verdict == Verdict::kProven && e.equivalent)
          << to_string(engine) << ": " << e.summary();
    }
  }
  // The mutants must supply real refutations, or this checks nothing.
  EXPECT_GT(refuted, 25);
}

TEST(StagedPortfolio, WideEquivalentPairsStillReachTheRace) {
  // Retimed wide pairs: sampling sees no difference, so the race decides,
  // and the report counts the stage's 16 sampled cycles on top of the
  // winning engine's own steps.
  Rng rng(2526);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned width = 7 + static_cast<unsigned>(trial % 10);
    const Netlist a = random_design(width, static_cast<unsigned>(rng.below(9)),
                                    trial % 3 == 0, rng);
    const Netlist b = retimed_or_mutated(a, false, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " width " +
                 std::to_string(width));
    ResourceBudget budget;
    const ClsEquivalenceResult r =
        verify_cls_equivalence(a, b, portfolio_options(), &budget);
    ASSERT_EQ(r.verdict, Verdict::kProven) << r.summary();
    EXPECT_TRUE(r.equivalent) << r.decided_reason;
    ASSERT_TRUE(r.decided_by == EquivalenceBackend::kBdd ||
                r.decided_by == EquivalenceBackend::kSat ||
                r.decided_by == EquivalenceBackend::kStatic)
        << to_string(r.decided_by) << ": " << r.decided_reason;
    ResourceBudget alone;
    const ClsEquivalenceResult winner =
        run_backend(r.decided_by, a, b, &alone, false);
    EXPECT_GE(r.usage.steps, winner.usage.steps + 16) << r.usage.summary();
  }
}

TEST(StagedPortfolio, ATripInsideSamplingHandsThePairToTheRace) {
  // On a wide mutant every checkpoint of an untripped run is one of the
  // sampler's cycles. Tripping any of them must leave the stage without a
  // verdict: the race decides, or the report is honestly undecided.
  Rng rng(2527);
  int swept = 0;
  for (int trial = 0; trial < 60 && swept < 5; ++trial) {
    const unsigned width = 7 + static_cast<unsigned>(trial % 10);
    const Netlist a = random_design(width, static_cast<unsigned>(rng.below(9)),
                                    trial % 3 == 0, rng);
    const Netlist b = retimed_or_mutated(a, true, rng);
    fault_inject::arm(std::uint64_t{1} << 62);
    ClsEquivalenceResult untripped;
    {
      ResourceBudget budget;
      untripped = verify_cls_equivalence(a, b, portfolio_options(), &budget);
    }
    const std::uint64_t total = fault_inject::checkpoints_passed();
    fault_inject::disarm();
    if (!decided_by_sampling(untripped)) continue;
    ++swept;
    ASSERT_EQ(total, untripped.sampled_cycles);
    for (std::uint64_t trip = 1; trip <= total; ++trip) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " trip " +
                   std::to_string(trip));
      fault_inject::arm(trip);
      ResourceBudget budget;
      const ClsEquivalenceResult r =
          verify_cls_equivalence(a, b, portfolio_options(), &budget);
      fault_inject::disarm();
      EXPECT_NE(r.decided_by, EquivalenceBackend::kExplicit)
          << r.decided_reason;
      EXPECT_FALSE(r.verdict == Verdict::kProven && r.equivalent)
          << r.summary();
      if (r.counterexample) {
        EXPECT_FALSE(cls_outputs_match(a, b, *r.counterexample));
      }
    }
  }
  EXPECT_EQ(swept, 5);
}

}  // namespace
}  // namespace rtv
