#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/test_eval.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "sim/binary_sim.hpp"
#include "sim/exact_sim.hpp"
#include "stg/stg.hpp"
#include "util/bits.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::and2_circuit;
using testing::toggle_circuit;

TEST(Fault, EnumerateCoversAllDrivenPorts) {
  const Netlist n = and2_circuit();
  const auto faults = enumerate_faults(n);
  // Ports with sinks: a, b, g = 3 ports x 2 polarities.
  EXPECT_EQ(faults.size(), 6u);
}

TEST(Fault, EnumerateSkipsDanglingPorts) {
  Netlist n;
  const NodeId a = n.add_input("a");
  (void)a;  // drives nothing
  EXPECT_TRUE(enumerate_faults(n).empty());
}

TEST(Fault, CollapseDropsBufferFaults) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId buf = n.add_gate(CellKind::kBuf, 0, "b");
  const NodeId o = n.add_output("o");
  n.connect(a, buf);
  n.connect(PortRef(buf, 0), PinRef(o, 0));
  const auto all = enumerate_faults(n);
  const auto kept = collapse_faults(n);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(kept.size(), 2u);  // only the PI port survives
  for (const auto& f : kept) {
    EXPECT_NE(n.kind(f.site.node), CellKind::kBuf);
  }
}

TEST(Fault, DescribeFormat) {
  const Netlist n = and2_circuit();
  const Fault f = fault_on(n, "g", 0, true);
  EXPECT_EQ(describe(n, f), "g.0 s-a-1");
  EXPECT_EQ(describe(n, Fault{f.site, false}), "g.0 s-a-0");
}

TEST(Fault, FaultOnUnknownNameThrows) {
  const Netlist n = and2_circuit();
  EXPECT_THROW(fault_on(n, "zz", 0, true), InvalidArgument);
}

TEST(Fault, InjectStuckAtChangesFunction) {
  const Netlist n = and2_circuit();
  const Netlist sa1 = inject_fault(n, fault_on(n, "a", 0, true));
  BinarySimulator sim(sa1);
  // With input a stuck at 1: out = b.
  EXPECT_EQ(sim.step(bits_from_string("00")), bits_from_string("0"));
  EXPECT_EQ(sim.step(bits_from_string("01")), bits_from_string("1"));
}

TEST(Fault, InjectKeepsOriginalIntact) {
  const Netlist n = and2_circuit();
  const Netlist faulty = inject_fault(n, fault_on(n, "g", 0, false));
  BinarySimulator good(n), bad(faulty);
  EXPECT_EQ(good.step(bits_from_string("11")), bits_from_string("1"));
  EXPECT_EQ(bad.step(bits_from_string("11")), bits_from_string("0"));
}

TEST(TestEval, ResponsesDistinguishRules) {
  EXPECT_TRUE(responses_distinguish({{kT0}}, {{kT1}}));
  EXPECT_FALSE(responses_distinguish({{kT0}}, {{kT0}}));
  EXPECT_FALSE(responses_distinguish({{kTX}}, {{kT1}}));
  EXPECT_FALSE(responses_distinguish({{kT0}}, {{kTX}}));
  EXPECT_TRUE(responses_distinguish({{kTX}, {kT1}}, {{kTX}, {kT0}}));
  EXPECT_THROW(responses_distinguish({{kT0}}, {}), InvalidArgument);
}

TEST(TestEval, CombinationalFaultDetected) {
  const Netlist n = and2_circuit();
  const Fault f = fault_on(n, "g", 0, true);
  EXPECT_TRUE(test_detects(n, f, bits_seq_from_string("00")));
  EXPECT_FALSE(test_detects(n, f, bits_seq_from_string("11")));
}

TEST(TestEval, SequentialFaultNeedsPropagation) {
  // Toggle circuit: fault s-a-0 on the xor output freezes the latch at 0.
  const Netlist n = toggle_circuit();
  const Fault f = fault_on(n, "x", 0, false);
  // One cycle cannot detect (output reads the unknown power-up latch).
  EXPECT_FALSE(test_detects(n, f, bits_seq_from_string("1")));
  // Two cycles: good design outputs X then X? From {0,1}: after in=1 the
  // latch is definite complement... good: t2 out = s0^1 -> X. Use three:
  // in = 1,0,0 -> good latch after t1 = !s0 (X), t2 = !s0 ... still X.
  // Initialize first: in=... the toggle has no synchronizing input, so
  // definite detection needs the CLS-resettable structure — verify the
  // fault IS detected via a longer test with in=1 at t2:
  // faulty latch always 0 => outputs 0 forever; good outputs toggle: from
  // any s0, out(t3) with inputs (1,1,1): s0, s0^1, s0 — never definite.
  // Conclusion: this fault is undetectable under unknown power-up.
  EXPECT_FALSE(test_detects(n, f, bits_seq_from_string("1.1.1.0.1")));
}

TEST(TestEval, ShiftRegisterStuckAtDetectable) {
  const Netlist n = shift_register(2);
  const Fault f = fault_on(n, "si", 0, true);  // input net stuck at 1
  // Drive 0; after 2 cycles the good design emits 0, faulty emits 1.
  EXPECT_TRUE(test_detects(n, f, bits_seq_from_string("0.0.0")));
  EXPECT_FALSE(test_detects(n, f, bits_seq_from_string("1.1.1")));
}

TEST(TestEval, ClsDetectionImpliesExactDetection) {
  Rng rng(202);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 15;
  int checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const auto faults = collapse_faults(n);
    for (std::size_t i = 0; i < faults.size() && i < 10; ++i) {
      BitsSeq test;
      for (int t = 0; t < 6; ++t) {
        Bits in(n.primary_inputs().size());
        for (auto& v : in) v = rng.coin();
        test.push_back(in);
      }
      if (cls_test_detects(n, faults[i], test)) {
        EXPECT_TRUE(test_detects(n, faults[i], test))
            << describe(n, faults[i]);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(TestEval, DelayedResponseShrinksStateSet) {
  // Figure-1 C: exact response after 1 warm-up cycle equals D's behaviour.
  const Netlist c = figure1_retimed();
  const BitsSeq test = bits_seq_from_string("0.1.1.1");
  EXPECT_EQ(sequence_to_string(exact_response(c, test)), "0.X.X.X");
  EXPECT_EQ(sequence_to_string(exact_response_delayed(c, test, 1)),
            "0.0.1.0");
}

/// The delayed state set as it was computed before it came from the STG:
/// repeated images, one scalar eval_packed per (state, input) per round.
std::vector<std::uint64_t> reference_delayed_state_set(const Netlist& netlist,
                                                       unsigned cycles) {
  const unsigned latches = static_cast<unsigned>(netlist.latches().size());
  const unsigned pis = static_cast<unsigned>(netlist.primary_inputs().size());
  BinarySimulator sim(netlist);
  std::vector<bool> current(pow2(latches), true);
  for (unsigned k = 0; k < cycles; ++k) {
    std::vector<bool> image(current.size(), false);
    for (std::uint64_t s = 0; s < current.size(); ++s) {
      if (!current[s]) continue;
      for (std::uint64_t a = 0; a < pow2(pis); ++a) {
        std::uint64_t out = 0, ns = 0;
        sim.eval_packed(s, a, out, ns);
        image[ns] = true;
      }
    }
    if (image == current) break;
    current = std::move(image);
  }
  std::vector<std::uint64_t> states;
  for (std::uint64_t s = 0; s < current.size(); ++s) {
    if (current[s]) states.push_back(s);
  }
  return states;
}

TEST(TestEval, DelayedStateSetMatchesTheScalarImageLoop) {
  std::size_t shrunk = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 6151 + 5);
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(3));
    opt.num_outputs = 1 + static_cast<unsigned>(rng.below(2));
    opt.num_gates = 3 + static_cast<unsigned>(rng.below(10));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(5));
    opt.table_probability = seed % 2 == 0 ? 0.0 : 0.4;
    const Netlist n = random_netlist(opt, rng);
    const Stg stg = Stg::extract(n);
    BitsSeq test;
    for (int t = 0; t < 4; ++t) {
      Bits v;
      for (std::size_t i = 0; i < n.primary_inputs().size(); ++i) {
        v.push_back(rng.coin());
      }
      test.push_back(v);
    }
    for (unsigned cycles = 0; cycles <= 3; ++cycles) {
      const std::vector<std::uint64_t> want =
          reference_delayed_state_set(n, cycles);
      const std::vector<bool> got = states_after_delay(stg, cycles);
      std::vector<std::uint64_t> got_states;
      for (std::uint64_t s = 0; s < got.size(); ++s) {
        if (got[s]) got_states.push_back(s);
      }
      EXPECT_EQ(got_states, want) << "cycles " << cycles;
      shrunk += want.size() < got.size();

      ExactTernarySimulator sim(n);
      sim.reset_from_states(want);
      EXPECT_EQ(sequence_to_string(exact_response_delayed(n, test, cycles)),
                sequence_to_string(sim.run(test)))
          << "cycles " << cycles;
    }
  }
  EXPECT_GE(shrunk, 50u);  // the delay actually removes states
}

TEST(TestEval, DelayedResponseAboveTheStgCapIsACapacityError) {
  // 2^(10 latches + 16 inputs) entries, above kDefaultStgEntryCap (2^24).
  Rng rng(7);
  RandomCircuitOptions opt;
  opt.num_inputs = 16;
  opt.num_latches = 10;
  opt.latch_after_gate_probability = 0.0;
  const Netlist n = random_netlist(opt, rng);
  ASSERT_EQ(n.num_latches(), 10u);
  EXPECT_THROW(exact_response_delayed(n, BitsSeq{Bits(16, 0)}, 1),
               CapacityError);
}

TEST(FaultSim, ExactCoverage) {
  const Netlist n = and2_circuit();
  const std::vector<Fault> faults = enumerate_faults(n);
  const std::vector<BitsSeq> tests = {
      bits_seq_from_string("00"), bits_seq_from_string("01"),
      bits_seq_from_string("10"), bits_seq_from_string("11")};
  const FaultSimResult r = fault_simulate(n, faults, tests);
  // Every stuck-at fault in a 2-input AND cone is detectable by the 4
  // exhaustive vectors.
  EXPECT_EQ(r.num_detected, faults.size());
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(FaultSim, NoTestsNoCoverage) {
  const Netlist n = and2_circuit();
  const FaultSimResult r = fault_simulate(n, enumerate_faults(n), {});
  EXPECT_EQ(r.num_detected, 0u);
}

TEST(FaultSim, SampledAgreesWithExactOnCombinational) {
  // On a combinational cone the sampled detector must agree exactly
  // (power-up state is irrelevant).
  const Netlist n = and2_circuit();
  Rng rng(31);
  for (const Fault& f : enumerate_faults(n)) {
    for (const char* t : {"00", "01", "10", "11"}) {
      const BitsSeq test = bits_seq_from_string(t);
      EXPECT_EQ(test_detects(n, f, test),
                sampled_test_detects(n, f, test, 64, rng))
          << describe(n, f) << " on " << t;
    }
  }
}

TEST(FaultSim, SampledNeverUnderdetectsExact) {
  // Sampling power-up states can only make detection EASIER (fewer states
  // to disagree), so exact detection implies sampled detection.
  Rng rng(64);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 3;
  opt.num_gates = 12;
  for (int trial = 0; trial < 5; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const auto faults = collapse_faults(n);
    for (std::size_t i = 0; i < faults.size() && i < 8; ++i) {
      BitsSeq test;
      for (int t = 0; t < 5; ++t) {
        Bits in(n.primary_inputs().size());
        for (auto& v : in) v = rng.coin();
        test.push_back(in);
      }
      if (test_detects(n, faults[i], test)) {
        Rng srng(trial * 100 + i);
        EXPECT_TRUE(sampled_test_detects(n, faults[i], test, 256, srng));
      }
    }
  }
}

TEST(FaultSim, Figure3CoverageDropsUnderRetiming) {
  // Quantified Section 2.2: the 0.1 test detects the AND1 s-a-1 fault in D
  // but not in C; coverage of the same 1-test set drops.
  const Netlist d = figure1_original();
  const Netlist c = figure1_retimed();
  const std::vector<BitsSeq> tests = {bits_seq_from_string("0.1")};
  const Fault fd = fault_on(d, kFigure3FaultGate, 0, true);
  const Fault fc = fault_on(c, kFigure3FaultGate, 0, true);
  const FaultSimResult rd = fault_simulate(d, {fd}, tests);
  const FaultSimResult rc = fault_simulate(c, {fc}, tests);
  EXPECT_EQ(rd.num_detected, 1u);
  EXPECT_EQ(rc.num_detected, 0u);
}

}  // namespace
}  // namespace rtv
