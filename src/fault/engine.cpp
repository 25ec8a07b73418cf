#include "fault/engine.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <unordered_map>

#include "fault/test_eval.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rtv {

namespace {

/// Verdict-table sentinel: fault not decided yet. Decided verdicts are the
/// witness test index (>= 0) or -1 for undetected.
constexpr int kUndecided = std::numeric_limits<int>::min();

/// Per-test power-up seed for kSampled: a pure function of (sample_seed,
/// test index), so every worker — and every thread count — reconstructs the
/// same power-up sample for the same test.
std::uint64_t test_seed(std::uint64_t sample_seed, std::size_t test_index) {
  std::uint64_t s =
      sample_seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(test_index) + 1);
  return splitmix64(s);
}

/// Identity of a fault for the shared verdict table: duplicate fault-list
/// entries hash to the same slot, so one worker's verdict settles them all.
struct FaultKey {
  std::uint32_t node = 0;
  std::uint32_t port = 0;
  bool stuck = false;

  bool operator==(const FaultKey&) const = default;
};

struct FaultKeyHash {
  std::size_t operator()(const FaultKey& k) const {
    std::uint64_t s = (static_cast<std::uint64_t>(k.node) << 33) ^
                      (static_cast<std::uint64_t>(k.port) << 1) ^
                      static_cast<std::uint64_t>(k.stuck);
    return static_cast<std::size_t>(splitmix64(s));
  }
};

/// Adopts another worker's verdict mid-fault when dropping is on.
int adopted_verdict(const std::atomic<int>* verdict) {
  return verdict == nullptr ? kUndecided
                            : verdict->load(std::memory_order_acquire);
}

// kSampled runs the packed ternary engine on definite lanes: every lane
// gets a random Boolean power-up state and the same Boolean inputs, so no
// lane ever holds X and each evolves as one Boolean machine.

/// Draws a random definite power-up state for every lane, latch-major then
/// lane. The good and faulty passes replay the same draws, so the order is
/// part of the kSampled contract.
void randomize_powerup(PackedTernarySimulator& sim, Rng& rng) {
  for (unsigned l = 0; l < sim.num_latches(); ++l) {
    for (unsigned lane = 0; lane < sim.lanes(); ++lane) {
      sim.set_state_trit(l, lane, to_trit(rng.coin()));
    }
  }
}

/// Agreement of output `o` over the sample after a step: bit 0 is set iff
/// every lane reads 0, bit 1 iff every lane reads 1 (tail lanes masked).
std::uint8_t sample_agreement(const PackedTernarySimulator& sim, unsigned o) {
  const unsigned lanes = sim.lanes();
  const unsigned words = sim.words();
  const TritWord* ow = sim.output_words(o);
  bool all0 = true, all1 = true;
  for (unsigned w = 0; w < words; ++w) {
    const std::uint64_t mask =
        (w + 1 == words && lanes % 64 != 0) ? low_mask(lanes % 64) : ~0ULL;
    all0 &= ((ow[w].ones | ow[w].unk) & mask) == 0;
    all1 &= (ow[w].ones & mask) == mask;
  }
  return static_cast<std::uint8_t>((all0 ? 1 : 0) | (all1 ? 2 : 0));
}

/// True iff two samples are constant on opposite values — a definite
/// difference over every sampled power-up state.
bool opposite_constants(std::uint8_t a, std::uint8_t b) {
  return ((a & 1) && (b & 2)) || ((a & 2) && (b & 1));
}

}  // namespace

// Declared in fault/fault_sim.hpp; defined here to share the kSampled
// helpers above.
bool sampled_test_detects(const Netlist& netlist, const Fault& fault,
                          const BitsSeq& test, unsigned lanes, Rng& rng) {
  const Netlist faulty = inject_fault(netlist, fault);
  PackedTernarySimulator good(netlist, lanes);
  PackedTernarySimulator bad(faulty, lanes);
  // The faulty copy appends nodes but never removes or reorders latches, so
  // latch index i refers to the same latch in both designs: give each lane
  // the same random power-up state in both.
  RTV_CHECK(good.num_latches() == bad.num_latches());
  Rng replay = rng;
  randomize_powerup(good, rng);
  randomize_powerup(bad, replay);
  for (const Bits& in : test) {
    const Trits lifted = to_trits(in);
    good.step_broadcast(lifted);
    bad.step_broadcast(lifted);
    for (unsigned o = 0; o < good.num_outputs(); ++o) {
      if (opposite_constants(sample_agreement(good, o),
                             sample_agreement(bad, o))) {
        return true;
      }
    }
  }
  return false;
}

struct FaultSimEngine::SharedGood {
  // kCls and kSampled: ternary form of the test set.
  std::vector<TritsSeq> lifted;
  // kCls: word-major good responses.
  PackedResponseWords cls;
  // kExact: exact ternary good response per test.
  std::vector<TritsSeq> exact;
  // kSampled: per (test, cycle, output) sample_agreement of the good sample.
  unsigned sample_lanes = 0;
  std::vector<std::uint8_t> sample_flags;
  std::vector<std::size_t> sample_offsets;  ///< per-test start into flags
};

FaultSimEngine::FaultSimEngine(const Netlist& netlist,
                               std::vector<BitsSeq> tests,
                               const FaultSimOptions& options)
    : netlist_(netlist),
      tests_(std::move(tests)),
      options_(options),
      good_(std::make_unique<SharedGood>()) {
  // Witness verdicts are ints (index >= 0, -1 undetected, INT_MIN sentinel);
  // bound the test set so the static_casts in the witness walkers cannot
  // narrow into wrong or sentinel values.
  RTV_REQUIRE(
      tests_.size() <=
          static_cast<std::size_t>(std::numeric_limits<int>::max()),
      "fault simulation supports at most INT_MAX tests");
  if (options_.mode != FaultSimMode::kExact) {
    good_->lifted.reserve(tests_.size());
    for (const BitsSeq& test : tests_) good_->lifted.push_back(to_trits(test));
  }
  switch (options_.mode) {
    case FaultSimMode::kCls:
      good_->cls = packed_cls_response_words(netlist_, good_->lifted);
      break;
    case FaultSimMode::kExact: {
      good_->exact.reserve(tests_.size());
      for (const BitsSeq& test : tests_) {
        good_->exact.push_back(exact_response(netlist_, test));
      }
      break;
    }
    case FaultSimMode::kSampled: {
      const unsigned lanes = std::max(1u, options_.sample_lanes);
      good_->sample_lanes = lanes;
      PackedTernarySimulator sim(netlist_, lanes);
      const unsigned outputs = sim.num_outputs();
      std::size_t total = 0;
      good_->sample_offsets.resize(tests_.size());
      for (std::size_t ti = 0; ti < tests_.size(); ++ti) {
        good_->sample_offsets[ti] = total;
        total += tests_[ti].size() * outputs;
      }
      good_->sample_flags.assign(total, 0);
      for (std::size_t ti = 0; ti < tests_.size(); ++ti) {
        Rng rng(test_seed(options_.sample_seed, ti));
        randomize_powerup(sim, rng);
        std::uint8_t* flags = good_->sample_flags.data() + good_->sample_offsets[ti];
        for (const Trits& in : good_->lifted[ti]) {
          sim.step_broadcast(in);
          for (unsigned o = 0; o < outputs; ++o) {
            flags[o] = sample_agreement(sim, o);
          }
          flags += outputs;
        }
      }
      break;
    }
  }
}

FaultSimEngine::~FaultSimEngine() = default;

namespace {

/// kCls verdict: walk the test set one packed 64-test word at a time,
/// compare every cycle's faulty output word against the shared good word,
/// and exit on the first detecting word. Witness rule (deterministic):
/// earliest chunk, then earliest cycle, then output order, then lowest
/// lane — not necessarily the globally first detecting test.
int cls_witness(const Netlist& netlist, const std::vector<TritsSeq>& lifted,
                const PackedResponseWords& good, const Fault& fault,
                const std::atomic<int>* verdict, std::size_t* evals,
                ResourceBudget* budget) {
  const std::size_t total = lifted.size();
  if (total == 0) return -1;
  const Netlist faulty = inject_fault(netlist, fault);
  const unsigned lanes = static_cast<unsigned>(std::min<std::size_t>(64, total));
  PackedTernarySimulator sim(faulty, lanes);
  PackedTrits cycle_inputs(sim.num_inputs(), lanes);
  const unsigned outputs = sim.num_outputs();
  for (std::size_t chunk = 0; chunk * 64 < total; ++chunk) {
    if (!budget->checkpoint("fault/cls-chunk")) return kUndecided;
    if (chunk > 0) {
      const int v = adopted_verdict(verdict);
      if (v != kUndecided) return v;
    }
    const std::size_t begin = chunk * 64;
    const unsigned count =
        static_cast<unsigned>(std::min<std::size_t>(64, total - begin));
    std::size_t max_len = 0;
    for (unsigned b = 0; b < count; ++b) {
      max_len = std::max(max_len, lifted[begin + b].size());
    }
    *evals += count;
    sim.reset_to_all_x();
    for (std::size_t t = 0; t < max_len; ++t) {
      pack_cycle_inputs(lifted, begin, count, t, Trit::kX, &cycle_inputs);
      sim.step_packed(cycle_inputs);
      std::uint64_t active = 0;
      for (unsigned b = 0; b < count; ++b) {
        active |= static_cast<std::uint64_t>(t < lifted[begin + b].size()) << b;
      }
      if (active == 0) continue;
      for (unsigned o = 0; o < outputs; ++o) {
        const TritWord f = sim.output_words(o)[0];
        const TritWord g = good.at(t, o, static_cast<unsigned>(chunk));
        const std::uint64_t det = (f.ones ^ g.ones) & ~f.unk & ~g.unk & active;
        if (det != 0) {
          return static_cast<int>(begin) + std::countr_zero(det);
        }
      }
    }
  }
  return -1;
}

/// kExact verdict: first test (in test order) whose exact faulty response
/// definitely differs from the shared good response.
int exact_witness(const Netlist& netlist, const std::vector<BitsSeq>& tests,
                  const std::vector<TritsSeq>& good, const Fault& fault,
                  const std::atomic<int>* verdict, std::size_t* evals,
                  ResourceBudget* budget) {
  const Netlist faulty = inject_fault(netlist, fault);
  for (std::size_t ti = 0; ti < tests.size(); ++ti) {
    if (!budget->checkpoint("fault/exact-test")) return kUndecided;
    if (ti > 0) {
      const int v = adopted_verdict(verdict);
      if (v != kUndecided) return v;
    }
    ++*evals;
    if (responses_distinguish(good[ti], exact_response(faulty, tests[ti]))) {
      return static_cast<int>(ti);
    }
  }
  return -1;
}

/// kSampled verdict: first test whose faulty sample (re-seeded from the
/// same per-test power-up draws as the good pass) definitely disagrees with
/// the stored good agreement flags at some (cycle, output).
int sampled_witness(const Netlist& netlist, const std::vector<TritsSeq>& lifted,
                    unsigned lanes, const std::uint8_t* flags,
                    const std::size_t* offsets, std::uint64_t sample_seed,
                    const Fault& fault, const std::atomic<int>* verdict,
                    std::size_t* evals, ResourceBudget* budget) {
  const Netlist faulty = inject_fault(netlist, fault);
  PackedTernarySimulator bad(faulty, lanes);
  const unsigned outputs = bad.num_outputs();
  for (std::size_t ti = 0; ti < lifted.size(); ++ti) {
    if (!budget->checkpoint("fault/sampled-test")) return kUndecided;
    if (ti > 0) {
      const int v = adopted_verdict(verdict);
      if (v != kUndecided) return v;
    }
    ++*evals;
    Rng rng(test_seed(sample_seed, ti));
    randomize_powerup(bad, rng);
    const std::uint8_t* tf = flags + offsets[ti];
    for (const Trits& in : lifted[ti]) {
      bad.step_broadcast(in);
      for (unsigned o = 0; o < outputs; ++o) {
        const std::uint8_t gf = tf[o];
        if (gf == 0) continue;  // good sample not constant here
        if (opposite_constants(gf, sample_agreement(bad, o))) {
          return static_cast<int>(ti);
        }
      }
      tf += outputs;
    }
  }
  return -1;
}

}  // namespace

FaultSimResult FaultSimEngine::run(const std::vector<Fault>& faults) const {
  const auto t0 = std::chrono::steady_clock::now();
  // One budget per run: workers probe it cooperatively (its counters are
  // atomics, so concurrent checkpoints are safe) and wind down together
  // once any limit blows. Exhaustion never throws out of the pool — an
  // aborted fault simply stays undecided.
  ResourceBudget budget(options_.budget, options_.cancel);
  FaultSimResult result;
  result.detected.assign(faults.size(), false);
  result.detecting_test.assign(faults.size(), -1);
  if (!faults.empty()) {
    // Map list entries to unique verdict slots (duplicates share a slot).
    std::vector<std::size_t> slot(faults.size());
    std::unordered_map<FaultKey, std::size_t, FaultKeyHash> ids;
    ids.reserve(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultKey key{faults[i].site.node.value, faults[i].site.port,
                         faults[i].stuck_value};
      slot[i] = ids.try_emplace(key, ids.size()).first->second;
    }
    std::vector<std::atomic<int>> verdicts(ids.size());
    for (auto& v : verdicts) v.store(kUndecided, std::memory_order_relaxed);

    // Witnesses land in a plain int array: one element per fault, so
    // concurrent writes never share an object (vector<bool> would).
    std::vector<int> witness(faults.size(), -1);
    std::atomic<std::size_t> evals{0};
    std::atomic<std::size_t> dropped{0};

    const auto compute = [&](const Fault& fault, const std::atomic<int>* v,
                             std::size_t* local_evals) -> int {
      switch (options_.mode) {
        case FaultSimMode::kCls:
          return cls_witness(netlist_, good_->lifted, good_->cls, fault, v,
                             local_evals, &budget);
        case FaultSimMode::kExact:
          return exact_witness(netlist_, tests_, good_->exact, fault, v,
                               local_evals, &budget);
        case FaultSimMode::kSampled:
          return sampled_witness(netlist_, good_->lifted, good_->sample_lanes,
                                 good_->sample_flags.data(),
                                 good_->sample_offsets.data(),
                                 options_.sample_seed, fault, v, local_evals,
                                 &budget);
      }
      return -1;
    };

    ThreadPool pool(options_.threads);
    pool.parallel_for(
        faults.size(), 1, [&](std::size_t begin, std::size_t end) {
          std::size_t local_evals = 0;
          std::size_t local_dropped = 0;
          for (std::size_t i = begin; i < end; ++i) {
            std::atomic<int>& v = verdicts[slot[i]];
            int w = v.load(std::memory_order_acquire);
            if (options_.drop_detected && w != kUndecided) {
              ++local_dropped;  // settled from the shared verdict table
            } else if (!budget.checkpoint("fault/fault")) {
              w = kUndecided;  // budget blown: leave this fault undecided
            } else {
              w = compute(faults[i],
                          options_.drop_detected ? &v : nullptr, &local_evals);
              // Verdicts are pure functions of (netlist, fault, tests,
              // options), so racing stores write the same value. A
              // budget-aborted walk returns kUndecided and must NOT be
              // published — another worker adopting it would corrupt its
              // own verdict.
              if (w != kUndecided) v.store(w, std::memory_order_release);
            }
            witness[i] = w;
          }
          evals.fetch_add(local_evals, std::memory_order_relaxed);
          dropped.fetch_add(local_dropped, std::memory_order_relaxed);
        });

    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (witness[i] == kUndecided) {
        ++result.faults_skipped;
        continue;  // detecting_test stays -1, detected stays false
      }
      result.detecting_test[i] = witness[i];
      if (witness[i] >= 0) {
        result.detected[i] = true;
        ++result.num_detected;
      }
    }
    result.complete = result.faults_skipped == 0;
    result.tests_run = evals.load();
    result.faults_dropped = dropped.load();
    result.coverage = static_cast<double>(result.num_detected) /
                      static_cast<double>(faults.size());
  }
  result.usage = budget.usage();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace rtv
