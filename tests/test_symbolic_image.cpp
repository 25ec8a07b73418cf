// Cross-check suite for the high-performance symbolic image path: the
// partitioned and-exists chain must compute BIT-IDENTICAL state sets (same
// canonical BDD node, same manager) as the retained monolithic reference
// path, on paper circuits and random netlists; the lossy operation cache
// must be correctness-neutral under forced collisions; the quantification
// schedule must cover every state/input variable exactly once.

#include <gtest/gtest.h>

#include <algorithm>

#include "bdd/bdd.hpp"
#include "bdd/symbolic.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using Ref = BddManager::Ref;

std::vector<Netlist> paper_circuits() {
  std::vector<Netlist> circuits;
  circuits.push_back(figure1_original());
  circuits.push_back(figure1_retimed());
  circuits.push_back(iscas_s27());
  circuits.push_back(lfsr(12, {0, 3, 5, 11}));
  circuits.push_back(testing::toggle_circuit());
  return circuits;
}

Netlist random_circuit(Rng& rng, unsigned latches, unsigned gates) {
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_outputs = 2;
  opt.num_gates = gates;
  opt.num_latches = latches;
  opt.latch_after_gate_probability = 0.15;
  return random_netlist(opt, rng);
}

/// A pseudo-random state set: the union of a few random state cubes.
Ref random_state_set(SymbolicMachine& sm, Rng& rng) {
  Ref set = BddManager::kFalse;
  const unsigned cubes = 1 + static_cast<unsigned>(rng.index(4));
  for (unsigned c = 0; c < cubes; ++c) {
    Bits state(sm.num_latches());
    for (auto& v : state) v = rng.coin();
    set = sm.manager().bdd_or(set, sm.state_cube(state));
  }
  return set;
}

TEST(SymbolicImage, PartitionedMatchesMonolithicOnPaperCircuits) {
  Rng rng(41);
  for (const Netlist& n : paper_circuits()) {
    SymbolicMachine sm(n);
    // Identical Refs: canonical BDDs in one manager, so set equality IS
    // node equality.
    for (int trial = 0; trial < 8; ++trial) {
      const Ref states = random_state_set(sm, rng);
      EXPECT_EQ(sm.image(states), sm.image_monolithic(states));
    }
    const Ref init = sm.state_cube(Bits(n.num_latches(), 0));
    const Ref part = sm.reachable(init);
    const Ref mono = sm.reachable_monolithic(init);
    EXPECT_EQ(part, mono);
    EXPECT_DOUBLE_EQ(sm.count_states(part), sm.count_states(mono));
  }
}

TEST(SymbolicImage, PartitionedMatchesMonolithicOnRandomNetlists) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const Netlist n =
        random_circuit(rng, 3 + static_cast<unsigned>(rng.index(6)),
                       10 + static_cast<unsigned>(rng.index(20)));
    SymbolicMachine sm(n);
    for (int s = 0; s < 4; ++s) {
      const Ref states = random_state_set(sm, rng);
      EXPECT_EQ(sm.image(states), sm.image_monolithic(states))
          << "trial " << trial;
    }
    Bits init(n.num_latches());
    for (auto& v : init) v = rng.coin();
    EXPECT_EQ(sm.reachable(sm.state_cube(init)),
              sm.reachable_monolithic(sm.state_cube(init)))
        << "trial " << trial;
  }
}

TEST(SymbolicImage, DelayedDesignSetsMatchMonolithic) {
  // Thm 4.5's C^k sets: the n-fold image of ALL states through both paths.
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist n = random_circuit(rng, 4, 16);
    SymbolicMachine sm(n);
    Ref mono = sm.all_states();
    for (unsigned k = 0; k <= 3; ++k) {
      EXPECT_EQ(sm.states_after_delay(k), mono)
          << "trial " << trial << " k=" << k;
      const Ref next = sm.image_monolithic(mono);
      if (next == mono) break;
      mono = next;
    }
  }
}

TEST(SymbolicImage, ClusterCapExtremesAgreeAcrossManagers) {
  // Cap = 1 forces one cluster per latch (maximal early quantification);
  // a huge cap degenerates to a single cluster (= the monolithic product).
  // Different managers, so compare by count and membership.
  Rng rng(99);
  const Netlist n = random_circuit(rng, 5, 18);
  SymbolicMachine fine(n, kDefaultBddNodeLimit, nullptr, 1);
  SymbolicMachine coarse(n, kDefaultBddNodeLimit, nullptr,
                         std::size_t{1} << 30);
  EXPECT_EQ(fine.partition().size(), n.num_latches());
  EXPECT_EQ(coarse.partition().size(), 1u);
  const Ref rf = fine.reachable(fine.state_cube(Bits(n.num_latches(), 0)));
  const Ref rc =
      coarse.reachable(coarse.state_cube(Bits(n.num_latches(), 0)));
  EXPECT_DOUBLE_EQ(fine.count_states(rf), coarse.count_states(rc));
  for (std::uint64_t s = 0; s < pow2(n.num_latches()); ++s) {
    std::vector<bool> af(fine.manager().num_vars(), false);
    std::vector<bool> ac(coarse.manager().num_vars(), false);
    for (unsigned i = 0; i < n.num_latches(); ++i) {
      af[fine.state_var(i)] = get_bit(s, i);
      ac[coarse.state_var(i)] = get_bit(s, i);
    }
    EXPECT_EQ(fine.manager().evaluate(rf, af),
              coarse.manager().evaluate(rc, ac))
        << "state " << s;
  }
}

TEST(SymbolicImage, QuantificationScheduleCoversEveryVariableOnce) {
  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    const Netlist n = random_circuit(rng, 4, 14);
    SymbolicMachine sm(n);
    BddManager& m = sm.manager();
    // Union of all scheduled cubes + the pre-quantified set must be exactly
    // the state+input variables, each scheduled at most once, and no
    // scheduled variable may appear in a LATER cluster's support.
    std::vector<int> times_scheduled(m.num_vars(), 0);
    const auto& clusters = sm.partition();
    for (std::size_t k = 0; k < clusters.size(); ++k) {
      for (const unsigned v : m.support(clusters[k].quantify_cube.get())) {
        ++times_scheduled[v];
        for (std::size_t later = k + 1; later < clusters.size(); ++later) {
          const auto sup = m.support(clusters[later].relation.get());
          EXPECT_FALSE(std::find(sup.begin(), sup.end(), v) != sup.end())
              << "var " << v << " scheduled at cluster " << k
              << " but alive in cluster " << later;
        }
      }
    }
    std::vector<bool> quantifiable(m.num_vars(), false);
    for (unsigned i = 0; i < sm.num_latches(); ++i) {
      quantifiable[sm.state_var(i)] = true;
    }
    for (unsigned j = 0; j < sm.num_inputs(); ++j) {
      quantifiable[sm.input_var(j)] = true;
    }
    // Variables in no cluster are pre-quantified internally; either way the
    // image of any set must have support only over current-state vars.
    const Ref img = sm.image(sm.all_states());
    for (const unsigned v : m.support(img)) {
      EXPECT_TRUE(quantifiable[v] && v % 2 == 0 && v < 2 * sm.num_latches())
          << "image support leaked var " << v;
    }
    for (unsigned v = 0; v < m.num_vars(); ++v) {
      EXPECT_LE(times_scheduled[v], 1) << "var " << v << " scheduled twice";
      if (times_scheduled[v] == 1) {
        EXPECT_TRUE(quantifiable[v]);
      }
    }
  }
}

TEST(AndExists, MatchesMaterialisedConjunction) {
  Rng rng(555);
  BddManager m(10);
  // Random function pairs and random quantifier sets: the fused recursion
  // must equal exists(and(f, g)).
  std::vector<Ref> pool;
  for (unsigned v = 0; v < 10; ++v) pool.push_back(m.var(v));
  for (int trial = 0; trial < 200; ++trial) {
    const Ref a = pool[rng.index(pool.size())];
    const Ref b = pool[rng.index(pool.size())];
    switch (rng.index(3)) {
      case 0: pool.push_back(m.bdd_and(a, m.bdd_not(b))); break;
      case 1: pool.push_back(m.bdd_or(a, b)); break;
      default: pool.push_back(m.bdd_xor(a, b)); break;
    }
    const Ref f = pool[rng.index(pool.size())];
    const Ref g = pool[rng.index(pool.size())];
    std::vector<unsigned> vars;
    for (unsigned v = 0; v < 10; ++v) {
      if (rng.coin()) vars.push_back(v);
    }
    EXPECT_EQ(m.and_exists(f, g, vars), m.exists(m.bdd_and(f, g), vars))
        << "trial " << trial;
  }
}

TEST(AndExists, TerminalAndCubeEdgeCases) {
  BddManager m(6);
  const Ref f = m.bdd_xor(m.var(0), m.var(2));
  const Ref cube = m.make_cube({0, 2});
  EXPECT_EQ(m.and_exists(BddManager::kFalse, f, cube), BddManager::kFalse);
  EXPECT_EQ(m.and_exists(f, BddManager::kFalse, cube), BddManager::kFalse);
  EXPECT_EQ(m.and_exists(BddManager::kTrue, BddManager::kTrue, cube),
            BddManager::kTrue);
  // f == g collapses to plain quantification.
  EXPECT_EQ(m.and_exists(f, f, cube), m.exists(f, {0, 2}));
  // Empty cube = plain conjunction.
  EXPECT_EQ(m.and_exists(f, m.var(1), BddManager::kTrue),
            m.bdd_and(f, m.var(1)));
  // Quantifying everything in the conjunction's support: satisfiable -> 1.
  EXPECT_EQ(m.and_exists(m.var(0), m.var(2), cube), BddManager::kTrue);
  // Contradiction stays 0 under quantification.
  EXPECT_EQ(m.and_exists(m.var(0), m.nvar(0), m.make_cube({0})),
            BddManager::kFalse);
}

TEST(OpCache, LossyCacheCorrectUnderForcedCollisions) {
  // A 2-slot pinned cache collides on nearly every lookup; every operator
  // result must still match a default-cache manager computing the same
  // functions (compared via full truth-table evaluation).
  Rng rng(777);
  BddManager tiny(8, kDefaultBddNodeLimit, /*op_cache_entries=*/2);
  BddManager roomy(8);
  ASSERT_EQ(tiny.op_cache_entries(), 2u);
  std::vector<Ref> tpool, rpool;
  for (unsigned v = 0; v < 8; ++v) {
    tpool.push_back(tiny.var(v));
    rpool.push_back(roomy.var(v));
  }
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t i = rng.index(tpool.size());
    const std::size_t j = rng.index(tpool.size());
    const std::size_t k = rng.index(tpool.size());
    tpool.push_back(tiny.ite(tpool[i], tpool[j], tpool[k]));
    rpool.push_back(roomy.ite(rpool[i], rpool[j], rpool[k]));
    if (trial % 3 == 0) {
      std::vector<unsigned> vars;
      for (unsigned v = 0; v < 8; ++v) {
        if (rng.coin()) vars.push_back(v);
      }
      tpool.push_back(tiny.and_exists(tpool[i], tpool[j], vars));
      rpool.push_back(roomy.and_exists(rpool[i], rpool[j], vars));
    }
  }
  // The tiny cache must have actually collided (overwrites observed) —
  // otherwise this test proves nothing.
  EXPECT_GT(tiny.op_cache_stats().overwrites, 0u);
  ASSERT_EQ(tpool.size(), rpool.size());
  for (std::size_t fn = 8; fn < tpool.size(); ++fn) {
    for (std::uint64_t x = 0; x < 256; ++x) {
      std::vector<bool> assign(8);
      for (unsigned v = 0; v < 8; ++v) assign[v] = get_bit(x, v);
      ASSERT_EQ(tiny.evaluate(tpool[fn], assign),
                roomy.evaluate(rpool[fn], assign))
          << "function " << fn << " assignment " << x;
    }
  }
}

TEST(OpCache, StatsObserveHitsAndLookups) {
  BddManager m(6);
  const auto before = m.op_cache_stats();
  const Ref f = m.bdd_and(m.var(0), m.var(1));
  const Ref g = m.bdd_and(m.var(0), m.var(1));  // replay: cache hit
  EXPECT_EQ(f, g);
  const auto after = m.op_cache_stats();
  EXPECT_GT(after.lookups, before.lookups);
  EXPECT_GT(after.hits, before.hits);
}

TEST(UniqueTable, CanonicityAcrossGrowth) {
  // Push the open-addressed table through several doublings, then verify
  // hash-consing still dedupes: the same function built two ways is the
  // same node.
  BddManager m(20);
  Rng rng(2024);
  Ref chain = BddManager::kFalse;
  for (int round = 0; round < 4000 && m.num_nodes() <= 20000; ++round) {
    Ref cube = BddManager::kTrue;
    for (int lit = 0; lit < 6; ++lit) {
      const unsigned v = static_cast<unsigned>(rng.index(20));
      cube = m.bdd_and(cube, rng.coin() ? m.var(v) : m.nvar(v));
    }
    chain = m.bdd_xor(chain, cube);
  }
  EXPECT_GT(m.num_nodes(), 8192u);  // at least one growth from 2^13 slots
  const Ref lhs = m.bdd_or(m.bdd_and(m.var(3), m.var(7)),
                           m.bdd_and(m.var(3), m.var(11)));
  const Ref rhs = m.bdd_and(m.var(3), m.bdd_or(m.var(7), m.var(11)));
  EXPECT_EQ(lhs, rhs);
}

TEST(Cubes, MakeCubeSortsAndDedupes) {
  BddManager m(8);
  const Ref a = m.make_cube({5, 1, 3, 1, 5});
  const Ref b = m.bdd_and(m.var(1), m.bdd_and(m.var(3), m.var(5)));
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.make_cube({}), BddManager::kTrue);
  EXPECT_THROW(m.make_cube({8}), InvalidArgument);
}

TEST(Cubes, BalancedReductionsMatchFolds) {
  BddManager m(12);
  std::vector<Ref> ops;
  for (unsigned v = 0; v < 12; ++v) {
    ops.push_back(v % 3 == 0 ? m.nvar(v) : m.var(v));
  }
  Ref and_fold = BddManager::kTrue, or_fold = BddManager::kFalse,
      xor_fold = BddManager::kFalse;
  for (const Ref f : ops) {
    and_fold = m.bdd_and(and_fold, f);
    or_fold = m.bdd_or(or_fold, f);
    xor_fold = m.bdd_xor(xor_fold, f);
  }
  EXPECT_EQ(m.bdd_and_many(ops), and_fold);
  EXPECT_EQ(m.bdd_or_many(ops), or_fold);
  EXPECT_EQ(m.bdd_xor_many(ops), xor_fold);
  EXPECT_EQ(m.bdd_and_many({}), BddManager::kTrue);
  EXPECT_EQ(m.bdd_or_many({}), BddManager::kFalse);
  EXPECT_EQ(m.bdd_xor_many({}), BddManager::kFalse);
  EXPECT_EQ(m.bdd_and_many({ops[4]}), ops[4]);
}

TEST(TableCells, MintermExpansionHonoursBudgetCheckpoints) {
  // A table cell with enough pins that the 2^pins expansion crosses the
  // leaf-checkpoint cadence: a step-quota budget must abort construction
  // with ResourceExhausted (previously the whole expansion ran unbounded
  // between checkpoints).
  Netlist n;
  const unsigned pins = 12;
  TruthTable t(pins, 1);
  for (std::uint64_t x = 0; x < pow2(pins); ++x) {
    t.set_row(x, popcount64(x) & 1);  // parity: densest possible minterms
  }
  const TableId tid = n.add_table(std::move(t));
  const NodeId cell = n.add_table_cell(tid, "parity");
  std::vector<NodeId> ins;
  for (unsigned p = 0; p < pins; ++p) {
    ins.push_back(n.add_input(indexed_name("i", p)));
    n.connect(PortRef(ins.back(), 0), PinRef(cell, p));
  }
  const NodeId latch = n.add_latch("q");
  const NodeId out = n.add_output("o");
  n.connect(PortRef(cell, 0), PinRef(latch, 0));
  n.connect(PortRef(latch, 0), PinRef(out, 0));
  n.check_valid(true);

  ResourceLimits limits;
  limits.step_quota = 4;  // a handful of checkpoints, then exhaustion
  ResourceBudget budget(limits);
  EXPECT_THROW(SymbolicMachine(n, kDefaultBddNodeLimit, &budget),
               ResourceExhausted);

  // Ungoverned, the same cell builds fine and computes parity.
  SymbolicMachine sm(n);
  BddManager& m = sm.manager();
  std::vector<Ref> inputs;
  for (unsigned p = 0; p < pins; ++p) {
    inputs.push_back(m.var(sm.input_var(p)));
  }
  EXPECT_EQ(sm.next_function(0), m.bdd_xor_many(inputs));
}

}  // namespace
}  // namespace rtv
