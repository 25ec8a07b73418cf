// The packed STG sweep and the relations decided on Mealy quotients.
//
// Stg::extract must equal the scalar BinarySimulator table entry for entry;
// Stg::extract_minimized must be the quotient of that table; and ⊑, ≼ and
// the minimal-delay search must give the same answers on quotients as on
// the raw machines (docs/algorithms.md, "Exact relations on Mealy
// quotients") — validate_retiming decides them on quotients only. The
// refinement and ≼'s pair search are also checked against the vector- and
// node-keyed versions they replaced, and the minimal delay against the
// per-cycle loop it replaced, kept here as references.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <tuple>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/validator.hpp"
#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "netlist/netlist.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "sim/binary_sim.hpp"
#include "stg/refine.hpp"
#include "stg/stg.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

/// Seeded random designs whose STG has at most 2^12 entries, shapes
/// spread over 1-7 inputs (both sides of 64 input symbols), 0-latch and
/// table-cell designs included.
std::vector<Netlist> sweep_designs(std::size_t count) {
  std::vector<Netlist> out;
  for (std::uint64_t seed = 1; out.size() < count; ++seed) {
    Rng rng(seed);
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(seed % 7);
    opt.num_latches = static_cast<unsigned>(seed % 5);
    opt.num_outputs = 1 + static_cast<unsigned>(seed % 3);
    opt.num_gates = 4 + static_cast<unsigned>(seed % 11);
    opt.table_probability = seed % 3 == 0 ? 0.3 : 0.0;
    opt.latch_after_gate_probability = opt.num_latches == 0 ? 0.0 : 0.1;
    Netlist n = random_netlist(opt, rng);
    if (n.latches().size() + n.primary_inputs().size() <= 12) {
      out.push_back(std::move(n));
    }
  }
  return out;
}

/// A 2-bit counter with no primary input: one input symbol.
Netlist free_running_counter() {
  Netlist n;
  const NodeId out = n.add_output("out");
  const NodeId l0 = n.add_latch("l0"), l1 = n.add_latch("l1");
  const NodeId inv = n.add_gate(CellKind::kNot, 1, "inv");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(l0, inv);
  n.connect(inv, l0);
  n.connect(PortRef(l0, 0), PinRef(x, 0));
  n.connect(PortRef(l1, 0), PinRef(x, 1));
  n.connect(x, l1);
  n.connect(l1, out);
  n.junctionize();
  return n;
}

std::vector<std::pair<std::string, Netlist>> generator_families() {
  return {
      {"free_running_counter", free_running_counter()},
      {"toggle", testing::toggle_circuit()},
      {"and2", testing::and2_circuit()},
      {"inverter_pipeline", testing::inverter_pipeline()},
      {"delayed_constant", testing::delayed_constant()},
      {"fig1_original", figure1_original()},
      {"fig1_retimed", figure1_retimed()},
      {"s27", iscas_s27()},
      {"shift6", shift_register(6)},
      {"lfsr5", lfsr(5, {0, 2})},
      {"twisted_ring4", twisted_ring(4)},
      {"adder2_2", pipelined_adder(2, 2)},
      {"adder3_1", pipelined_adder(3, 1)},
      {"ctrl2", controller_datapath(2)},
  };
}

/// Stg::extract against the scalar oracle, entry for entry.
void expect_matches_scalar(const Netlist& n, const std::string& what) {
  const Stg stg = Stg::extract(n);
  ASSERT_EQ(stg.num_states(), pow2(static_cast<unsigned>(n.latches().size())))
      << what;
  ASSERT_EQ(stg.num_inputs(),
            pow2(static_cast<unsigned>(n.primary_inputs().size())))
      << what;
  ASSERT_EQ(stg.num_output_bits(), n.primary_outputs().size()) << what;
  const BinarySimulator sim(n);
  for (std::uint64_t s = 0; s < stg.num_states(); ++s) {
    for (std::uint64_t a = 0; a < stg.num_inputs(); ++a) {
      std::uint64_t out = 0, next = 0;
      sim.eval_packed(s, a, out, next);
      if (stg.output(s, a) != out || stg.next_state(s, a) != next) {
        ADD_FAILURE() << what << ": entry (s" << s << ", a" << a
                      << ") differs from the scalar table";
        return;
      }
    }
  }
}

/// Equal tables entry for entry, state numbering included.
bool same_tables(const Stg& a, const Stg& b) {
  if (a.num_states() != b.num_states() || !a.compatible_with(b)) return false;
  for (std::uint64_t s = 0; s < a.num_states(); ++s) {
    if (!std::equal(a.next_row(s), a.next_row(s) + a.num_inputs(),
                    b.next_row(s)) ||
        !std::equal(a.output_row(s), a.output_row(s) + a.num_inputs(),
                    b.output_row(s))) {
      return false;
    }
  }
  return true;
}

/// A bijection between the states of `a` and `b` that preserves outputs and
/// transitions. Both machines are reduced here, so Mealy equivalence on
/// their disjoint union pairs each state of `a` with exactly one of `b`.
bool isomorphic(const Stg& a, const Stg& b) {
  if (a.num_states() != b.num_states() || !a.compatible_with(b)) return false;
  const std::vector<std::uint32_t> cls =
      equivalence_classes(Stg::disjoint_union(a, b));
  if (num_classes(cls) != a.num_states()) return false;
  std::vector<std::uint32_t> b_of_class(a.num_states(), 0);
  for (std::uint64_t s = 0; s < b.num_states(); ++s) {
    b_of_class[cls[a.num_states() + s]] = static_cast<std::uint32_t>(s);
  }
  for (std::uint64_t s = 0; s < a.num_states(); ++s) {
    const std::uint32_t f = b_of_class[cls[s]];
    for (std::uint64_t i = 0; i < a.num_inputs(); ++i) {
      if (a.output(s, i) != b.output(f, i) ||
          b_of_class[cls[a.next_state(s, i)]] != b.next_state(f, i)) {
        return false;
      }
    }
  }
  return true;
}

struct Relations {
  bool implies = false, safe = false;
  int delay = -1;
  bool operator==(const Relations&) const = default;
};

Relations relations(const Stg& c, const Stg& d) {
  return {implies(c, d), safe_replacement(c, d),
          min_delay_for_implication(c, d, 6)};
}

/// Both orientations (C, D) and (D, C) agree between the raw machines and
/// the quotients standing in for them.
bool relations_agree(const Stg& c, const Stg& d, const Stg& cq,
                     const Stg& dq) {
  return relations(c, d) == relations(cq, dq) &&
         relations(d, c) == relations(dq, cq);
}

TEST(StgQuotient, PackedExtractEqualsScalarTableOnSeededDesigns) {
  const std::vector<Netlist> designs = sweep_designs(300);
  bool narrow = false, wide = false, no_latch = false;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const Netlist& n = designs[i];
    expect_matches_scalar(n, "design " + std::to_string(i));
    narrow |= n.primary_inputs().size() < 6;
    wide |= n.primary_inputs().size() >= 6;
    no_latch |= n.latches().empty();
  }
  // Both lane layouts: several states share a word (fewer than 64 input
  // symbols), or a state's row fills whole words.
  EXPECT_TRUE(narrow && wide && no_latch);
}

TEST(StgQuotient, PackedExtractEqualsScalarTableOnGeneratorFamilies) {
  bool no_input = false;
  for (const auto& [name, n] : generator_families()) {
    expect_matches_scalar(n, name);
    no_input |= n.primary_inputs().empty();
  }
  EXPECT_TRUE(no_input);
}

TEST(StgQuotient, ExtractMinimizedIsTheQuotientOfTheRawMachine) {
  std::vector<std::pair<std::string, Netlist>> cases = generator_families();
  const std::vector<Netlist> designs = sweep_designs(300);
  for (std::size_t i = 0; i < designs.size(); ++i) {
    cases.emplace_back("design " + std::to_string(i), designs[i]);
  }
  for (const auto& [name, n] : cases) {
    const Stg raw = Stg::extract(n);
    const Stg expected = quotient(raw, equivalence_classes(raw));
    const Stg got = Stg::extract_minimized(n);
    EXPECT_TRUE(isomorphic(got, expected)) << name;
    EXPECT_TRUE(same_tables(got, expected)) << name;
  }
}

TEST(StgQuotient, ExtractMinimizedRefusesMoreThan2To16States) {
  EXPECT_THROW(Stg::extract_minimized(shift_register(17)), CapacityError);
  EXPECT_NO_THROW(Stg::extract_minimized(shift_register(16)));
}

TEST(StgQuotient, ExtractMinimizedHonoursTheBudget) {
  ResourceLimits limits;
  limits.step_quota = 1;
  ResourceBudget budget(limits);
  EXPECT_THROW(
      Stg::extract_minimized(testing::toggle_circuit(), kDefaultStgEntryCap,
                             &budget),
      ResourceExhausted);
}

/// A seeded design D and a random legal retiming C of it.
std::pair<Netlist, Netlist> retimed_pair(std::uint64_t seed) {
  Rng rng(seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 1 + static_cast<unsigned>(seed % 2);
  opt.num_outputs = 1 + static_cast<unsigned>(seed % 2);
  opt.num_latches = 1 + static_cast<unsigned>(seed % 3);
  opt.num_gates = 4 + static_cast<unsigned>(seed % 7);
  opt.table_probability = seed % 2 == 0 ? 0.3 : 0.0;
  opt.latch_after_gate_probability = 0.1;
  Netlist d = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(d);
  Netlist c = sequence_retiming(d, g, testing::random_legal_lag(g, rng)).retimed;
  return {std::move(d), std::move(c)};
}

TEST(StgQuotient, RelationsOnQuotientsEqualRawRelations) {
  std::size_t checked = 0, implied = 0, not_implied = 0, not_safe = 0;
  for (std::uint64_t seed = 1; checked < 300; ++seed) {
    const auto [dn, cn] = retimed_pair(seed);
    if (dn.latches().size() > 7 || cn.latches().size() > 7) continue;
    ++checked;
    const Stg d = Stg::extract(dn), c = Stg::extract(cn);
    const Stg dq = Stg::extract_minimized(dn), cq = Stg::extract_minimized(cn);
    EXPECT_TRUE(relations_agree(c, d, cq, dq)) << "seed " << seed;
    const bool im = implies(c, d);
    implied += im;
    not_implied += !im;
    not_safe += !safe_replacement(c, d);
  }
  // The sweep must exercise both answers, or agreement proves little.
  EXPECT_GT(implied, 0u);
  EXPECT_GT(not_implied, 0u);
  EXPECT_GT(not_safe, 0u);
}

TEST(StgQuotient, MergingTwoInequivalentClassesBreaksAgreement) {
  std::size_t perturbed = 0;
  for (std::uint64_t seed = 1; perturbed < 50; ++seed) {
    const auto [dn, cn] = retimed_pair(seed);
    if (dn.latches().size() > 7) continue;
    const Stg d = Stg::extract(dn);
    std::vector<std::uint32_t> classes = equivalence_classes(d);
    if (num_classes(classes) < 2) continue;
    ++perturbed;
    // Classes 0 and 1 are inequivalent by construction; fold 1 into 0.
    for (std::uint32_t& k : classes) k = k == 0 ? 0 : k - 1;
    const Stg merged = quotient(d, classes);
    EXPECT_FALSE(relations_agree(d, d, Stg::extract_minimized(dn), merged))
        << "seed " << seed;
  }
}

TEST(StgQuotient, ValidateDecidesPipelinedAdder42OnQuotients) {
  const Netlist n = pipelined_adder(4, 2);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (const std::vector<int>& lag :
       {min_area_retime(g).lag, min_period_retime_feas(g).lag}) {
    const RetimingValidation v = validate_retiming(n, g, lag, {});
    EXPECT_TRUE(v.stg_checked);
    EXPECT_TRUE(v.theorems_hold);
    EXPECT_TRUE(v.implication);
    EXPECT_TRUE(v.safe_replacement);
    EXPECT_EQ(v.min_delay_implication, 0);
    EXPECT_EQ(v.verdict, Verdict::kProven);
    EXPECT_EQ(v.c_quotient_states, 32u);
    EXPECT_EQ(v.d_quotient_states, 32u);
  }
}

// ---- the interning loops against the keyed tables they replaced ---------

/// The vector-keyed Moore refinement refine_partition replaced: every
/// round interns each state's full (|Σ|+1)-word signature into a fresh map.
template <typename Next>
std::vector<std::uint32_t> reference_refine_partition(
    std::vector<std::uint32_t> cls, const Next* next, std::uint64_t ni,
    ResourceBudget* budget) {
  const std::uint64_t n = cls.size();
  std::vector<std::uint32_t> next_cls(n);
  std::vector<std::uint64_t> sig(ni + 1);
  for (;;) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/refine-iter");
    std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, WordsHash>
        ids;
    for (std::uint64_t s = 0; s < n; ++s) {
      sig[0] = cls[s];
      const Next* row = next + s * ni;
      for (std::uint64_t a = 0; a < ni; ++a) sig[a + 1] = cls[row[a]];
      const auto [it, inserted] =
          ids.try_emplace(sig, static_cast<std::uint32_t>(ids.size()));
      next_cls[s] = it->second;
    }
    if (next_cls == cls || ids.size() == num_classes(cls)) {
      std::unordered_map<std::uint32_t, std::uint32_t> renumber;
      for (std::uint64_t s = 0; s < n; ++s) {
        const auto [it, ins] = renumber.emplace(
            next_cls[s], static_cast<std::uint32_t>(renumber.size()));
        next_cls[s] = it->second;
      }
      return next_cls;
    }
    std::swap(cls, next_cls);
  }
}

/// Both refinements on one table, in both id widths when the states fit
/// 16 bits: the same class vector and the same number of rounds (budget
/// checkpoints). Returns the class count.
std::uint32_t expect_refines_like_reference(
    const std::vector<std::uint32_t>& initial,
    const std::vector<std::uint32_t>& next, std::uint64_t ni,
    const std::string& what) {
  ResourceBudget want_budget(ResourceLimits{}), got_budget(ResourceLimits{});
  const std::vector<std::uint32_t> want =
      reference_refine_partition(initial, next.data(), ni, &want_budget);
  EXPECT_EQ(refine_partition(initial, next.data(), ni, &got_budget), want)
      << what << " (32-bit ids)";
  EXPECT_EQ(got_budget.usage().steps, want_budget.usage().steps) << what;
  if (initial.size() <= 0x10000) {
    const std::vector<std::uint16_t> narrow(next.begin(), next.end());
    EXPECT_EQ(refine_partition(initial, narrow.data(), ni, nullptr), want)
        << what << " (16-bit ids)";
  }
  return num_classes(want);
}

/// Output-row classes of a raw machine, numbered by first occurrence.
std::vector<std::uint32_t> output_row_classes(const Stg& stg) {
  std::vector<std::uint32_t> cls(stg.num_states());
  std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, WordsHash> ids;
  for (std::uint64_t s = 0; s < cls.size(); ++s) {
    const std::uint64_t* row = stg.output_row(s);
    cls[s] = ids.try_emplace({row, row + stg.num_inputs()},
                             static_cast<std::uint32_t>(ids.size()))
                 .first->second;
  }
  return cls;
}

std::vector<std::uint32_t> next_table(const Stg& stg) {
  const std::uint32_t* first = stg.next_row(0);
  return {first, first + stg.num_states() * stg.num_inputs()};
}

TEST(StgQuotient, RefinePartitionMatchesTheKeyedReferenceOnSeededTables) {
  Rng rng(26);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t n = 1 + rng.below(trial % 4 == 0 ? 3000 : 60);
    const std::uint64_t ni = 1 + rng.below(9);
    // Few initial classes and few distinct targets make deep refinements.
    const std::uint64_t k = 1 + rng.below(std::min<std::uint64_t>(n, 4));
    const std::uint64_t reach = 1 + rng.below(n);
    std::vector<std::uint32_t> next(n * ni), initial(n);
    for (std::uint32_t& t : next) {
      t = static_cast<std::uint32_t>(rng.below(reach));
    }
    // Dense ids in any order: refinement renumbers by first occurrence.
    for (std::uint64_t s = 0; s < n; ++s) {
      initial[s] =
          static_cast<std::uint32_t>(s < k ? k - 1 - s : rng.below(k));
    }
    expect_refines_like_reference(initial, next, ni,
                                  "trial " + std::to_string(trial));
  }
}

TEST(StgQuotient, RefinePartitionMatchesTheKeyedReferenceOnShiftRegisters) {
  // A shift register's output rows name one bit; each round names one more,
  // so every round but the last splits, down to 2^n singleton classes.
  for (unsigned n = 1; n <= 16; ++n) {
    const Stg stg = Stg::extract(shift_register(n));
    EXPECT_EQ(expect_refines_like_reference(output_row_classes(stg),
                                            next_table(stg), stg.num_inputs(),
                                            "shift" + std::to_string(n)),
              pow2(n));
  }
}

TEST(StgQuotient, RefinePartitionStopsAtOnceOnAStablePartition) {
  // A permutation machine in one class, and the same machine with every
  // state in its own class: neither ever splits.
  Rng rng(7);
  const std::uint64_t n = 500, ni = 3;
  std::vector<std::uint32_t> next(n * ni);
  for (std::uint64_t a = 0; a < ni; ++a) {
    std::vector<std::uint32_t> perm(n);
    for (std::uint64_t s = 0; s < n; ++s) {
      perm[s] = static_cast<std::uint32_t>(s);
    }
    for (std::uint64_t s = n; s > 1; --s) {
      std::swap(perm[s - 1], perm[rng.below(s)]);
    }
    for (std::uint64_t s = 0; s < n; ++s) next[s * ni + a] = perm[s];
  }
  std::vector<std::uint32_t> one(n, 0), singletons(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    singletons[s] = static_cast<std::uint32_t>(n - 1 - s);
  }
  for (const auto& [initial, classes] :
       {std::pair{one, 1u}, std::pair{singletons, 500u}}) {
    ResourceBudget budget(ResourceLimits{});
    EXPECT_EQ(num_classes(refine_partition(initial, next.data(), ni, &budget)),
              classes);
    EXPECT_EQ(budget.usage().steps, 1u);  // one round, no split
    expect_refines_like_reference(initial, next, ni, "stable");
  }
}

TEST(StgQuotient, IdSetSeparatesKeysThatCollideByHash) {
  // Every key hashes alike, so only the equality callback tells them apart:
  // each value interns once, in first-seen order, across growth.
  std::vector<std::uint64_t> keys;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) keys.push_back(rng.below(700));
  for (const std::uint64_t hash : {0ULL, 0x123456789ULL}) {
    IdSet set;
    std::vector<std::uint32_t> want, got;
    std::unordered_map<std::uint64_t, std::uint32_t> reference;
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
      want.push_back(reference.try_emplace(keys[i], i).first->second);
      got.push_back(set.intern(hash, i, [&](std::uint32_t j) {
        return keys[j] == keys[i];
      }));
    }
    EXPECT_EQ(got, want);
  }
}

TEST(StgQuotient, IdSetComparesEveryWordOfACollidingKey) {
  // Two rows that differ only in their last word and whose slot tags
  // collide: only the word-by-word compare tells them apart.
  std::unordered_map<std::uint32_t, std::uint64_t> seen;
  std::vector<std::uint64_t> rows = {7, 0, 7, 0};
  for (Rng rng(11);;) {  // a birthday search over random last words
    const std::uint64_t v = rng.next();
    rows[1] = v;
    const auto [it, fresh] =
        seen.try_emplace(IdSet::tag_of(hash_words(rows.data(), 2)), v);
    if (!fresh) {
      rows[1] = it->second;
      rows[3] = v;
      break;
    }
  }
  IdSet set;
  EXPECT_EQ(set.intern_words(rows.data(), 2, rows.data(), 0), 0u);
  EXPECT_EQ(set.intern_words(rows.data() + 2, 2, rows.data(), 1), 1u);
  EXPECT_EQ(set.intern_words(rows.data() + 2, 2, rows.data(), 2), 1u);
}

/// The node-keyed ≼ search find_safe_replacement_violation replaced: the
/// same pair BFS over (C state, D set) with visited pairs in a
/// std::unordered_set, every image built member by member for every pair.
bool reference_safe_replacement_violation(const Stg& c, const Stg& d,
                                          SafeReplacementViolation* witness,
                                          ResourceBudget* budget = nullptr) {
  const std::uint64_t nd = d.num_states();
  const std::size_t set_words = words_for_bits(nd);
  const std::size_t stride = 1 + set_words;
  constexpr std::uint32_t kStart = 0xffffffffu;
  std::vector<std::uint64_t> arena;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> via;
  const auto hash = [&](std::uint32_t i) {
    return hash_words(arena.data() + i * stride, stride);
  };
  const auto equal = [&](std::uint32_t x, std::uint32_t y) {
    return std::equal(arena.begin() + x * stride,
                      arena.begin() + (x + 1) * stride,
                      arena.begin() + y * stride);
  };
  std::unordered_set<std::uint32_t, decltype(hash), decltype(equal)> visited(
      0, hash, equal);
  const auto intern = [&](std::uint32_t from, std::uint64_t a) {
    if (visited.insert(static_cast<std::uint32_t>(parent.size())).second) {
      parent.push_back(from);
      via.push_back(a);
    } else {
      arena.resize(arena.size() - stride);
    }
  };
  for (std::uint64_t s1 = 0; s1 < c.num_states(); ++s1) {
    arena.push_back(s1);
    for (std::size_t w = 0; w < set_words; ++w) {
      arena.push_back(low_mask(static_cast<unsigned>(
          std::min<std::uint64_t>(nd - 64 * w, 64))));
    }
    intern(kStart, 0);
  }
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < parent.size(); ++i) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/subset-pair");
    const std::uint64_t* pair = arena.data() + i * stride;
    const std::uint64_t* c_out = c.output_row(pair[0]);
    const std::uint32_t* c_next = c.next_row(pair[0]);
    members.clear();
    for (std::size_t w = 0; w < set_words; ++w) {
      for (std::uint64_t bits = pair[1 + w]; bits != 0; bits &= bits - 1) {
        members.push_back(static_cast<std::uint32_t>(
            64 * w + static_cast<unsigned>(std::countr_zero(bits))));
      }
    }
    for (std::uint64_t a = 0; a < c.num_inputs(); ++a) {
      const std::size_t tail = arena.size();
      arena.resize(tail + stride, 0);
      arena[tail] = c_next[a];
      bool empty = true;
      for (const std::uint32_t s0 : members) {
        if (d.output_row(s0)[a] != c_out[a]) continue;
        const std::uint32_t t = d.next_row(s0)[a];
        arena[tail + 1 + t / 64] |= 1ULL << (t % 64);
        empty = false;
      }
      if (empty) {
        witness->inputs = {a};
        std::uint32_t p = i;
        for (; parent[p] != kStart; p = parent[p]) {
          witness->inputs.push_back(via[p]);
        }
        std::reverse(witness->inputs.begin(), witness->inputs.end());
        witness->c_start = static_cast<std::uint32_t>(arena[p * stride]);
        return true;
      }
      intern(i, a);
    }
  }
  return false;
}

/// ≼ and its witness against the node-keyed reference, one orientation:
/// the same verdict, the same witness and the same number of
/// stg/subset-pair checkpoints. Returns that number.
std::uint64_t expect_safe_replacement_like_reference(
    const Stg& c, const Stg& d, const std::string& what,
    std::size_t* violations) {
  SafeReplacementViolation want, got;
  ResourceBudget want_budget(ResourceLimits{}), got_budget(ResourceLimits{});
  const bool violated =
      reference_safe_replacement_violation(c, d, &want, &want_budget);
  EXPECT_EQ(find_safe_replacement_violation(c, d, &got, &got_budget),
            violated)
      << what;
  EXPECT_EQ(got.c_start, want.c_start) << what;
  EXPECT_EQ(got.inputs, want.inputs) << what;
  EXPECT_EQ(got_budget.usage().steps, want_budget.usage().steps) << what;
  *violations += violated;
  return want_budget.usage().steps;
}

/// Whether ≼ runs out of a budget of `steps` checkpoints, and the answer
/// when it does not.
std::optional<bool> safe_replacement_within(auto search, const Stg& c,
                                            const Stg& d,
                                            std::uint64_t steps) {
  ResourceLimits limits;
  limits.step_quota = steps;
  ResourceBudget budget(limits);
  try {
    SafeReplacementViolation witness;
    return search(c, d, &witness, &budget);
  } catch (const ResourceExhausted&) {
    return std::nullopt;
  }
}

TEST(StgQuotient, SafeReplacementMatchesTheKeyedReferenceOnRetimedPairs) {
  std::size_t checked = 0, violations = 0;
  for (std::uint64_t seed = 1; checked < 300; ++seed) {
    const auto [dn, cn] = retimed_pair(seed);
    if (dn.latches().size() > 7 || cn.latches().size() > 7) continue;
    ++checked;
    const std::string what = "seed " + std::to_string(seed);
    const Stg d = Stg::extract(dn), c = Stg::extract(cn);
    expect_safe_replacement_like_reference(c, d, what + " C<=D", &violations);
    expect_safe_replacement_like_reference(d, c, what + " D<=C", &violations);
    const Stg dq = Stg::extract_minimized(dn), cq = Stg::extract_minimized(cn);
    expect_safe_replacement_like_reference(cq, dq, what + " quotients",
                                           &violations);
  }
  EXPECT_GT(violations, 0u);  // witnesses compared, not only verdicts
}

/// The design with its output gated by its first latch (a one-gate
/// mutant): AND(last, first) instead of last.
Netlist first_latch_gated(Netlist n) {
  const PinRef so(n.primary_outputs()[0], 0);
  const PortRef last = n.driver(so);
  n.disconnect(so);
  const NodeId gate = n.add_gate(CellKind::kAnd, 2, "mutant");
  n.connect(last, PinRef(gate, 0));
  n.connect(PortRef(n.latches()[0], 0), PinRef(gate, 1));
  n.connect(PortRef(gate, 0), so);
  n.junctionize();
  return n;
}

/// shift_register, lfsr and twisted_ring at `n` latches and their one-gate
/// mutants, raw: a shift register's D sets halve each cycle, so most pairs
/// carry a large set.
std::vector<std::pair<std::string, Stg>> shift_family_machines(unsigned n) {
  const std::vector<unsigned> taps =
      n == 1 ? std::vector<unsigned>{0} : std::vector<unsigned>{0, n / 2};
  const std::string k = std::to_string(n);
  std::vector<std::pair<std::string, Stg>> out;
  for (auto& [name, design] : {std::pair{"shift" + k, shift_register(n)},
                               std::pair{"lfsr" + k, lfsr(n, taps)},
                               std::pair{"ring" + k, twisted_ring(n)}}) {
    out.emplace_back(name, Stg::extract(design));
    out.emplace_back(name + "/mutant", Stg::extract(first_latch_gated(design)));
  }
  return out;
}

/// The (C, D) pairs of one shift_family_machines(n): each design against
/// each design, itself included, and each design against its own mutant,
/// both orientations.
template <typename Check>
void for_each_family_pair(unsigned n, Check check) {
  const auto machines = shift_family_machines(n);
  for (const auto& [c_name, c] : machines) {
    for (const auto& [d_name, d] : machines) {
      const bool designs = c_name.find('/') == std::string::npos &&
                           d_name.find('/') == std::string::npos;
      if (designs || c_name + "/mutant" == d_name ||
          d_name + "/mutant" == c_name) {
        check(c, d, c_name + " <= " + d_name);
      }
    }
  }
}

TEST(StgQuotient, SafeReplacementMatchesTheKeyedReferenceOnShiftFamilies) {
  // 18 searches at 8-10 latches run past the cap (a twisted ring against
  // another family meets its violation only after ~2^(2n) pairs); there
  // both searches must run out alike.
  constexpr std::uint64_t kCap = 20000;
  std::size_t compared = 0, capped = 0, violations = 0;
  std::uint64_t most_pairs = 0;
  for (unsigned n = 1; n <= 10; ++n) {
    for_each_family_pair(n, [&](const Stg& c, const Stg& d,
                                const std::string& what) {
      ++compared;
      if (!safe_replacement_within(reference_safe_replacement_violation, c, d,
                                   kCap)) {
        ++capped;
        EXPECT_FALSE(safe_replacement_within(find_safe_replacement_violation,
                                             c, d, kCap))
            << what;
        return;
      }
      most_pairs = std::max(most_pairs, expect_safe_replacement_like_reference(
                                            c, d, what, &violations));
    });
  }
  EXPECT_EQ(compared, 10u * 15u);
  EXPECT_LT(capped, 20u);
  // Both answers, and searches deep enough that large sets repeat.
  EXPECT_GT(violations, 50u);
  EXPECT_LT(violations, compared - capped - 30u);
  EXPECT_GT(most_pairs, 10000u);
}

TEST(StgQuotient, SafeReplacementTripsABudgetAtTheReferencesPoint) {
  // With a budget of k checkpoints the search runs out iff the reference
  // does, for every k up to the reference's count: the same checkpoint
  // sequence, not only the same total.
  std::size_t swept = 0;
  for (unsigned n = 1; n <= 5; ++n) {
    for_each_family_pair(n, [&](const Stg& c, const Stg& d,
                                const std::string& what) {
      ++swept;
      for (std::uint64_t k = 1;; ++k) {
        const std::optional<bool> want = safe_replacement_within(
            reference_safe_replacement_violation, c, d, k);
        ASSERT_EQ(
            safe_replacement_within(find_safe_replacement_violation, c, d, k),
            want)
            << what << " at " << k << " steps";
        if (want) break;
      }
    });
  }
  EXPECT_EQ(swept, 5u * 15u);
}

/// The per-cycle loop min_delay_for_implication replaced: a delayed
/// machine, a disjoint union and a full refinement for every n.
int reference_min_delay_for_implication(const Stg& c, const Stg& d,
                                        unsigned max_cycles) {
  for (unsigned n = 0; n <= max_cycles; ++n) {
    if (implies(delayed_design(c, n), d)) return static_cast<int>(n);
  }
  return -1;
}

TEST(Delayed, MinDelayFromOneRefinementMatchesThePerCycleLoop) {
  std::map<int, std::size_t> seen;  // delay -> how often
  const auto expect_same = [&](const Stg& c, const Stg& d, unsigned cap,
                               const std::string& what) {
    const int want = reference_min_delay_for_implication(c, d, cap);
    EXPECT_EQ(min_delay_for_implication(c, d, cap), want) << what;
    ++seen[want];
  };
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; checked < 300; ++seed) {
    const auto [dn, cn] = retimed_pair(seed);
    if (dn.latches().size() > 7 || cn.latches().size() > 7) continue;
    ++checked;
    const std::string what = "seed " + std::to_string(seed);
    const Stg d = Stg::extract(dn), c = Stg::extract(cn);
    expect_same(c, d, 6, what + " C<=D");
    expect_same(d, c, 6, what + " D<=C");
    const Stg dq = Stg::extract_minimized(dn), cq = Stg::extract_minimized(cn);
    expect_same(cq, dq, 6, what + " quotients");
  }
  // Figure 1: the retimed C needs one cycle before it implies D.
  const Stg fig1_d = Stg::extract(figure1_original());
  const Stg fig1_c = Stg::extract(figure1_retimed());
  EXPECT_EQ(min_delay_for_implication(fig1_c, fig1_d, 4), 1);
  expect_same(fig1_c, fig1_d, 4, "fig1");
  expect_same(fig1_d, fig1_c, 4, "fig1 reversed");
  // Pairs that never reach ⊑ under some or every cap.
  for (unsigned n = 1; n <= 6; ++n) {
    for_each_family_pair(n, [&](const Stg& c, const Stg& d,
                                const std::string& what) {
      for (const unsigned cap : {0u, 3u, 12u}) expect_same(c, d, cap, what);
    });
  }
  // Every kind of answer occurred: ⊑ at once, after a delay, and never.
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[-1], 30u);
}

TEST(StgQuotient, ExtractionsMatchTheScalarOracleAtEveryLatchCount) {
  // Latch counts 1..16 give the sweep's transpose every plane count, and
  // extract_minimized must equal the raw quotient table for table, class
  // numbering included.
  for (unsigned latches = 1; latches <= 16; ++latches) {
    Netlist n;
    for (std::uint64_t seed = latches;; seed += 100) {
      Rng rng(seed);
      RandomCircuitOptions opt;
      opt.num_inputs = 1 + latches % 2;
      opt.num_outputs = 1 + latches % 3;
      opt.num_latches = latches;
      opt.num_gates = 6 + latches;
      opt.latch_after_gate_probability = 0.0;
      n = random_netlist(opt, rng);
      if (n.latches().size() == latches) break;
    }
    const std::string what = std::to_string(latches) + " latches";
    expect_matches_scalar(n, what);
    const Stg raw = Stg::extract(n);
    const Stg expected = quotient(raw, equivalence_classes(raw));
    const Stg got = Stg::extract_minimized(n);
    ASSERT_EQ(got.num_states(), expected.num_states()) << what;
    for (std::uint64_t s = 0; s < got.num_states(); ++s) {
      for (std::uint64_t a = 0; a < got.num_inputs(); ++a) {
        ASSERT_EQ(got.next_state(s, a), expected.next_state(s, a)) << what;
        ASSERT_EQ(got.output(s, a), expected.output(s, a)) << what;
      }
    }
  }
}


// ---- row-keyed extraction ------------------------------------------------

/// `mixed` latches b_j with next state b_j XOR x_(j mod I), so M holds
/// them; `stages` latches a_i with next state x_(i mod I), in neither M nor
/// F; and one output (b_0 AND a_0) XOR b_1 XOR ... XOR b_(mixed-1), which
/// reads no PI, so F holds it. Its keys (b, output) take 3 * 2^(mixed-1)
/// values: b_0 = 1 splits on a_0.
Netlist mixed_key_design(unsigned inputs, unsigned mixed, unsigned stages) {
  Netlist n;
  std::vector<NodeId> x, b, a;
  for (unsigned i = 0; i < inputs; ++i) {
    x.push_back(n.add_input(indexed_name("x", i)));
  }
  const NodeId out = n.add_output("out");
  for (unsigned j = 0; j < mixed; ++j) {
    b.push_back(n.add_latch(indexed_name("b", j)));
  }
  for (unsigned i = 0; i < stages; ++i) {
    a.push_back(n.add_latch(indexed_name("a", i)));
  }
  for (unsigned j = 0; j < mixed; ++j) {
    const NodeId g = n.add_gate(CellKind::kXor, 2);
    n.connect(b[j], g, 0);
    n.connect(x[j % inputs], g, 1);
    n.connect(g, b[j]);
  }
  for (unsigned i = 0; i < stages; ++i) n.connect(x[i % inputs], a[i]);
  const NodeId both = n.add_gate(CellKind::kAnd, 2);
  n.connect(b[0], both, 0);
  n.connect(a[0], both, 1);
  const NodeId parity = n.add_gate(CellKind::kXor, mixed);
  n.connect(both, parity, 0);
  for (unsigned j = 1; j < mixed; ++j) n.connect(b[j], parity, j);
  n.connect(parity, out);
  n.junctionize();
  return n;
}

/// Pipelines, their sequenced min-area and min-period retimings, and
/// mixed-key designs, as far as the raw machine fits the 16-latch and
/// 2^24-entry caps.
std::vector<std::pair<std::string, Netlist>> row_keyed_cases() {
  std::vector<std::pair<std::string, Netlist>> cases;
  const auto add = [&](const std::string& name, Netlist n) {
    if (n.latches().size() <= 16 &&
        n.latches().size() + n.primary_inputs().size() <= 24) {
      cases.emplace_back(name, std::move(n));
    }
  };
  const auto add_retimings = [&](const std::string& name, const Netlist& n) {
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    add(name, n);
    add(name + "/min-area",
        sequence_retiming(n, g, min_area_retime(g).lag).retimed);
    add(name + "/min-period",
        sequence_retiming(n, g, min_period_retime_feas(g).lag).retimed);
  };
  for (const auto& [bits, stages] : {std::pair{2u, 1u}, {3u, 1u}, {2u, 2u},
                                     {3u, 2u}, {4u, 2u}}) {
    add_retimings("adder" + std::to_string(bits) + "_" + std::to_string(stages),
                  pipelined_adder(bits, stages));
  }
  for (const auto& [bits, rows] : {std::pair{2u, 1u}, {3u, 1u}, {3u, 2u},
                                   {4u, 2u}}) {
    add_retimings("mult" + std::to_string(bits) + "_" + std::to_string(rows),
                  pipelined_multiplier(bits, rows));
  }
  // K * |Σ| below a word (3 * 2), past whole words (24 * 4), one state per
  // word (12 * 64), and words past whole 64-word chunks (3072 * 2 / 64).
  for (const auto& [inputs, mixed, stages] :
       {std::tuple{1u, 1u, 2u}, {2u, 4u, 2u}, {6u, 3u, 3u}, {1u, 11u, 2u}}) {
    add("mixed" + std::to_string(inputs) + "_" + std::to_string(mixed) + "_" +
            std::to_string(stages),
        mixed_key_design(inputs, mixed, stages));
  }
  return cases;
}

TEST(StgQuotient, RowKeyedExtractionIsTheRawQuotientTableForTable) {
  std::size_t collapsed = 0;
  for (const auto& [name, n] : row_keyed_cases()) {
    collapsed += !row_keys(n).reps.empty();
    const Stg raw = Stg::extract(n);
    EXPECT_TRUE(same_tables(Stg::extract_minimized(n),
                            quotient(raw, equivalence_classes(raw))))
        << name;
  }
  // adder2_2, 3_2 and 4_2 with their min-period retimings, and the four
  // mixed-key designs.
  EXPECT_EQ(collapsed, 10u);
}

TEST(StgQuotient, RowKeysShareRowsAndFollowFirstStates) {
  bool below_a_word = false, past_whole_words = false, one_per_word = false,
       past_whole_chunks = false;
  for (const auto& [name, n] : row_keyed_cases()) {
    const RowKeys keys = row_keys(n);
    if (keys.reps.empty()) continue;
    const Stg raw = Stg::extract(n);
    ASSERT_EQ(keys.rep_of.size(), raw.num_states()) << name;
    for (std::size_t r = 0; r < keys.reps.size(); ++r) {
      ASSERT_EQ(keys.rep_of[keys.reps[r]], r) << name;
      ASSERT_TRUE(r == 0 || keys.reps[r - 1] < keys.reps[r]) << name;
    }
    for (std::uint64_t s = 0; s < raw.num_states(); ++s) {
      const std::uint32_t rep = keys.reps[keys.rep_of[s]];
      ASSERT_LE(rep, s) << name;
      ASSERT_TRUE(std::equal(raw.next_row(s), raw.next_row(s) + raw.num_inputs(),
                             raw.next_row(rep)) &&
                  std::equal(raw.output_row(s),
                             raw.output_row(s) + raw.num_inputs(),
                             raw.output_row(rep)))
          << name << ": state " << s << " and its representative " << rep;
    }
    const std::uint64_t entries = keys.reps.size() * raw.num_inputs();
    below_a_word |= entries < 64;
    past_whole_words |= entries > 64 && entries % 64 != 0;
    one_per_word |= raw.num_inputs() >= 64;
    past_whole_chunks |= entries / 64 > 64 && entries / 64 % 64 != 0;
  }
  EXPECT_TRUE(below_a_word && past_whole_words && one_per_word &&
              past_whole_chunks);
  // Both parts of a mixed key: 3 * 2^(mixed-1) keys.
  EXPECT_EQ(row_keys(mixed_key_design(2, 4, 2)).reps.size(), 24u);
  EXPECT_EQ(row_keys(mixed_key_design(1, 11, 2)).reps.size(), 3072u);
}

}  // namespace
}  // namespace rtv
