// Tests for the sequential test-pattern generator and its interaction with
// retiming (the Theorem 4.6 workflow end to end).

#include <gtest/gtest.h>

#include "core/safety.hpp"
#include "fault/tpg.hpp"
#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "test_helpers.hpp"

namespace rtv {
namespace {

TEST(Tpg, FullCoverageOnCombinationalCone) {
  const Netlist n = testing::and2_circuit();
  const TestSet set = generate_tests(n);
  EXPECT_DOUBLE_EQ(set.coverage, 1.0);
  EXPECT_GE(set.tests.size(), 2u);  // need at least 11 and one 0-side vector
  // Every detected fault names a real test.
  for (std::size_t i = 0; i < set.faults.size(); ++i) {
    ASSERT_TRUE(set.detected[i]);
    ASSERT_GE(set.detected_by[i], 0);
    EXPECT_TRUE(test_detects(n, set.faults[i],
                             set.tests[static_cast<std::size_t>(
                                 set.detected_by[i])]));
  }
}

TEST(Tpg, ShiftRegisterNeedsFlushLengthTests) {
  const Netlist n = shift_register(3);
  const TestSet set = generate_tests(n);
  EXPECT_DOUBLE_EQ(set.coverage, 1.0) << set.summary();
  for (const BitsSeq& t : set.tests) {
    EXPECT_GE(t.size(), 4u);  // must flush 3 latches + observe
  }
}

TEST(Tpg, PipelinedAdderHighCoverage) {
  const Netlist n = pipelined_adder(2, 2);
  const TestSet set = generate_tests(n);
  EXPECT_GT(set.coverage, 0.6) << set.summary();
  EXPECT_FALSE(set.tests.empty());
}

TEST(Tpg, S27Coverage) {
  const TestSet set = generate_tests(iscas_s27());
  // Definite detection under unknown power-up is hard — only ~27% of s27's
  // faults have tests whose fault-free/faulty responses are definite and
  // complementary from EVERY power-up state (longer candidates do not help;
  // the ceiling is structural). This is the paper's Section-2 theme from
  // the DFT side: without reset, the X-dominated responses veto detection.
  EXPECT_GT(set.coverage, 0.2) << set.summary();
  EXPECT_LT(set.coverage, 0.6) << "coverage ceiling moved: " << set.summary();
}

TEST(Tpg, DeterministicForSeed) {
  const Netlist n = pipelined_adder(2, 2);
  const TestSet a = generate_tests(n);
  const TestSet b = generate_tests(n);
  EXPECT_EQ(a.tests.size(), b.tests.size());
  EXPECT_EQ(a.num_detected, b.num_detected);
}

TEST(Tpg, GradeMatchesGeneration) {
  const Netlist n = pipelined_adder(2, 2);
  const TestSet set = generate_tests(n);
  const TestSet regraded = grade_tests(n, set.faults, set.tests, 0);
  EXPECT_EQ(regraded.num_detected, set.num_detected);
}

TEST(Tpg, GradeTestsDelayedMatchesPerPairOracle) {
  // Delayed grading shares the fault-free state set and good responses
  // across faults; the result must be exactly the per-(fault, test) loop
  // over test_detects_delayed, first detecting test included.
  Rng rng(4646);
  std::size_t detected = 0, missed = 0;
  for (int trial = 0; trial < 100; ++trial) {
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(3));
    opt.num_gates = 4 + static_cast<unsigned>(rng.below(8));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(4));
    opt.table_probability = trial % 3 == 0 ? 0.3 : 0.0;
    const Netlist n = random_netlist(opt, rng);
    const unsigned delay = 1 + static_cast<unsigned>(trial % 3);
    std::vector<BitsSeq> tests(1 + rng.below(4));
    for (BitsSeq& test : tests) {
      for (std::uint64_t t = 0, len = 2 + rng.below(5); t < len; ++t) {
        Bits in(opt.num_inputs);
        for (auto& v : in) v = rng.coin();
        test.push_back(in);
      }
    }
    const std::vector<Fault> faults = collapse_faults(n);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const TestSet set = grade_tests(n, faults, tests, delay);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      int first = -1;
      if (!n.sinks(faults[i].site).empty()) {
        for (std::size_t t = 0; t < tests.size() && first < 0; ++t) {
          if (test_detects_delayed(n, faults[i], tests[t], delay)) {
            first = static_cast<int>(t);
          }
        }
      }
      EXPECT_EQ(set.detected_by[i], first) << describe(n, faults[i]);
      EXPECT_EQ(set.detected[i], first >= 0);
      ++(first >= 0 ? detected : missed);
    }
  }
  // Both outcomes must occur, or the comparison is vacuous.
  EXPECT_GT(detected, 100u);
  EXPECT_GT(missed, 100u);
}

TEST(Tpg, GradeTestsWithoutDelayMatchesPerPairOracle) {
  // Without a delay, grading shares each test's good response across
  // faults; the result must be the per-(fault, test) test_detects loop.
  Rng rng(4647);
  std::size_t detected = 0, missed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(3));
    opt.num_gates = 4 + static_cast<unsigned>(rng.below(8));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(4));
    opt.table_probability = trial % 3 == 0 ? 0.3 : 0.0;
    const Netlist n = random_netlist(opt, rng);
    std::vector<BitsSeq> tests(1 + rng.below(4));
    for (BitsSeq& test : tests) {
      for (std::uint64_t t = 0, len = 2 + rng.below(5); t < len; ++t) {
        Bits in(opt.num_inputs);
        for (auto& v : in) v = rng.coin();
        test.push_back(in);
      }
    }
    const std::vector<Fault> faults = collapse_faults(n);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const TestSet set = grade_tests(n, faults, tests, 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      int first = -1;
      for (std::size_t t = 0; t < tests.size() && first < 0; ++t) {
        if (!n.sinks(faults[i].site).empty() &&
            test_detects(n, faults[i], tests[t])) {
          first = static_cast<int>(t);
        }
      }
      EXPECT_EQ(set.detected_by[i], first) << describe(n, faults[i]);
      ++(first >= 0 ? detected : missed);
    }
  }
  EXPECT_GT(detected, 50u);
  EXPECT_GT(missed, 50u);
}

/// The candidate-by-candidate fault-dropping loop generate_tests replaced:
/// test_detects per (candidate, undetected fault), so a fresh good response
/// and a fresh faulty design for every pair.
TestSet reference_generate_tests(const Netlist& netlist,
                                 const TpgOptions& options) {
  TestSet set;
  set.faults = collapse_faults(netlist);
  set.detected.assign(set.faults.size(), false);
  set.detected_by.assign(set.faults.size(), -1);
  Rng rng(options.seed);
  const unsigned inputs =
      static_cast<unsigned>(netlist.primary_inputs().size());
  for (unsigned c = 0; c < options.max_candidates; ++c) {
    if (set.num_detected == set.faults.size()) break;
    const unsigned length = static_cast<unsigned>(
        rng.range(options.min_length, options.max_length));
    BitsSeq candidate;
    if (rng.chance(options.constant_probability)) {
      Bits in(inputs);
      for (auto& v : in) v = rng.coin();
      candidate.assign(length, in);
    } else {
      for (unsigned t = 0; t < length; ++t) {
        Bits in(inputs);
        for (auto& v : in) v = rng.coin();
        candidate.push_back(in);
      }
    }
    bool kept = false;
    for (std::size_t i = 0; i < set.faults.size(); ++i) {
      if (set.detected[i] || !test_detects(netlist, set.faults[i], candidate)) {
        continue;
      }
      if (!kept) {
        set.tests.push_back(candidate);
        kept = true;
      }
      set.detected[i] = true;
      set.detected_by[i] = static_cast<int>(set.tests.size()) - 1;
      ++set.num_detected;
    }
  }
  set.coverage = set.faults.empty()
                     ? 0.0
                     : static_cast<double>(set.num_detected) /
                           static_cast<double>(set.faults.size());
  return set;
}

TEST(Tpg, GenerateTestsMatchesThePerPairLoop) {
  // The same kept tests, in the same order, and the same first detector
  // per fault, on every design the Tpg tests generate for and under a few
  // option sets (full coverage reached early, and never reached).
  const std::pair<std::string, Netlist> designs[] = {
      {"and2", testing::and2_circuit()},
      {"shift3", shift_register(3)},
      {"adder2_2", pipelined_adder(2, 2)},
      {"s27", iscas_s27()},
      {"fig1", figure1_original()},
  };
  TpgOptions short_run;
  short_run.max_candidates = 20;
  short_run.seed = 7;
  TpgOptions fresh_vectors;
  fresh_vectors.constant_probability = 0.0;
  fresh_vectors.seed = 3;
  for (const auto& [name, n] : designs) {
    for (const TpgOptions& options : {TpgOptions{}, short_run, fresh_vectors}) {
      SCOPED_TRACE(name + " seed " + std::to_string(options.seed));
      const TestSet want = reference_generate_tests(n, options);
      const TestSet got = generate_tests(n, options);
      EXPECT_EQ(got.tests, want.tests);
      EXPECT_EQ(got.detected, want.detected);
      EXPECT_EQ(got.detected_by, want.detected_by);
      EXPECT_EQ(got.num_detected, want.num_detected);
      EXPECT_EQ(got.coverage, want.coverage);
    }
  }
}

TEST(Tpg, Theorem46EndToEnd) {
  // Generate tests on D; retime min-area; grade the same tests on C and on
  // C^k. Coverage on C^k must not drop below coverage on D (Thm 4.6).
  const Netlist d = pipelined_adder(2, 2);
  const TestSet on_d = generate_tests(d);
  ASSERT_GT(on_d.num_detected, 0u);

  const RetimeGraph g = RetimeGraph::from_netlist(d);
  SequencedRetiming seq;
  analyze_lag_retiming(d, g, min_area_retime(g).lag, &seq);
  const unsigned k = static_cast<unsigned>(seq.stats.forward_moves);

  const TestSet on_ck = grade_tests(seq.retimed, on_d.faults, on_d.tests, k);
  for (std::size_t i = 0; i < on_d.faults.size(); ++i) {
    if (!on_d.detected[i]) continue;
    if (seq.retimed.sinks(on_d.faults[i].site).empty()) continue;
    EXPECT_TRUE(on_ck.detected[i])
        << "Thm 4.6 violated for " << describe(d, on_d.faults[i]);
  }
}

TEST(Tpg, Figure1FaultTestSetBreaksOnC) {
  // Micro version of Section 2.2 via the generator: tests generated for D
  // can lose coverage on C without warm-up, never with it.
  const Netlist d = figure1_original();
  const Netlist c = figure1_retimed();
  const TestSet on_d = generate_tests(d);
  const TestSet on_c = grade_tests(c, on_d.faults, on_d.tests, 0);
  const TestSet on_c1 = grade_tests(c, on_d.faults, on_d.tests, 1);
  EXPECT_LE(on_c.num_detected, on_d.num_detected);
  for (std::size_t i = 0; i < on_d.faults.size(); ++i) {
    if (on_d.detected[i]) {
      EXPECT_TRUE(on_c1.detected[i])
          << describe(d, on_d.faults[i]) << " lost even with warm-up";
    }
  }
}

TEST(Tpg, SummaryFormat) {
  const TestSet set = generate_tests(testing::and2_circuit());
  EXPECT_NE(set.summary().find("100%"), std::string::npos);
}

}  // namespace
}  // namespace rtv
