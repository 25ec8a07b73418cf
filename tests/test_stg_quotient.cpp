// The packed STG sweep and the relations decided on Mealy quotients.
//
// Stg::extract must equal the scalar BinarySimulator table entry for entry;
// Stg::extract_minimized must be the quotient of that table; and ⊑, ≼ and
// the minimal-delay search must give the same answers on quotients as on
// the raw machines (docs/algorithms.md, "Exact relations on Mealy
// quotients") — validate_retiming decides them on quotients only.

#include <gtest/gtest.h>

#include <string>

#include "core/validator.hpp"
#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "sim/binary_sim.hpp"
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
    EXPECT_TRUE(isomorphic(Stg::extract_minimized(n), expected)) << name;
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
  }
}

}  // namespace
}  // namespace rtv
