#include <gtest/gtest.h>

#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "sim/binary_sim.hpp"
#include "sim/cls_sim.hpp"
#include "sim/exact_sim.hpp"
#include "sim/packed_sim.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::and2_circuit;
using testing::toggle_circuit;

TEST(Vectors, BitsRoundTrip) {
  EXPECT_EQ(to_string(bits_from_string("0110")), "0110");
  EXPECT_THROW(bits_from_string("012"), ParseError);
  EXPECT_EQ(sequence_to_string(bits_seq_from_string("01.10")), "01.10");
}

TEST(Vectors, PackUnpackBits) {
  const Bits b = bits_from_string("1011");
  EXPECT_EQ(pack_bits(b), 0b1101u);  // LSB-first packing
  EXPECT_EQ(unpack_bits(0b1101, 4), b);
}

TEST(Vectors, PackUnpackTrits) {
  const Trits t = trits_from_string("0X1");
  const std::uint64_t code = pack_trits(t);
  EXPECT_EQ(unpack_trits(code, 3), t);
}

TEST(Vectors, LowerToBits) {
  Bits out;
  EXPECT_TRUE(try_lower_to_bits(trits_from_string("01"), out));
  EXPECT_EQ(out, bits_from_string("01"));
  EXPECT_FALSE(try_lower_to_bits(trits_from_string("0X"), out));
}

TEST(BinarySim, CombinationalAnd) {
  const Netlist n = and2_circuit();
  BinarySimulator sim(n);
  EXPECT_EQ(sim.step(bits_from_string("11")), bits_from_string("1"));
  EXPECT_EQ(sim.step(bits_from_string("10")), bits_from_string("0"));
  EXPECT_EQ(sim.step(bits_from_string("01")), bits_from_string("0"));
  EXPECT_EQ(sim.step(bits_from_string("00")), bits_from_string("0"));
}

TEST(BinarySim, ToggleBehaviour) {
  const Netlist n = toggle_circuit();
  BinarySimulator sim(n);
  sim.set_state(bits_from_string("0"));
  // out = t (pre-clock), next t = t XOR in.
  const BitsSeq outs = sim.run(bits_seq_from_string("1.1.1.0"));
  EXPECT_EQ(sequence_to_string(outs), "0.1.0.1");
  EXPECT_EQ(sim.state(), bits_from_string("1"));
}

TEST(BinarySim, EvalDoesNotMutateState) {
  const Netlist n = toggle_circuit();
  BinarySimulator sim(n);
  sim.set_state(bits_from_string("1"));
  Bits out, next;
  sim.eval(bits_from_string("0"), bits_from_string("1"), out, next);
  EXPECT_EQ(out, bits_from_string("0"));
  EXPECT_EQ(next, bits_from_string("1"));
  EXPECT_EQ(sim.state(), bits_from_string("1"));
}

TEST(BinarySim, EvalPackedMatchesUnpacked) {
  Rng rng(21);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_latches = 4;
  opt.num_gates = 25;
  const Netlist n = random_netlist(opt, rng);
  BinarySimulator sim(n);
  const unsigned L = sim.num_latches();
  const unsigned I = sim.num_inputs();
  for (std::uint64_t s = 0; s < pow2(L); ++s) {
    for (std::uint64_t a = 0; a < pow2(I); ++a) {
      Bits out, next;
      sim.eval(unpack_bits(s, L), unpack_bits(a, I), out, next);
      std::uint64_t po = 0, pn = 0;
      sim.eval_packed(s, a, po, pn);
      EXPECT_EQ(po, pack_bits(out));
      EXPECT_EQ(pn, pack_bits(next));
    }
  }
}

TEST(BinarySim, InputSizeMismatchThrows) {
  const Netlist n = and2_circuit();
  BinarySimulator sim(n);
  EXPECT_THROW(sim.step(bits_from_string("1")), InvalidArgument);
}

TEST(BinarySim, AllGateKindsEvaluate) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId s = n.add_input("s");
  std::vector<NodeId> gates;
  const auto bin = [&](CellKind k, const char* name) {
    const NodeId g = n.add_gate(k, 2, name);
    n.connect(a, g, 0);
    n.connect(b, g, 1);
    gates.push_back(g);
  };
  bin(CellKind::kAnd, "and");
  bin(CellKind::kOr, "or");
  bin(CellKind::kNand, "nand");
  bin(CellKind::kNor, "nor");
  bin(CellKind::kXor, "xor");
  bin(CellKind::kXnor, "xnor");
  const NodeId mux = n.add_gate(CellKind::kMux, 0, "mux");
  n.connect(s, mux, 0);
  n.connect(a, mux, 1);
  n.connect(b, mux, 2);
  gates.push_back(mux);
  const NodeId inv = n.add_gate(CellKind::kNot, 0, "not");
  n.connect(a, inv, 0);
  gates.push_back(inv);
  const NodeId c1 = n.add_const(true, "c1");
  gates.push_back(c1);
  for (const NodeId g : gates) {
    const NodeId po = n.add_output("o_" + n.name(g));
    n.connect(PortRef(g, 0), PinRef(po, 0));
  }
  n.junctionize();
  n.check_valid(true);

  BinarySimulator sim(n);
  for (std::uint64_t x = 0; x < 8; ++x) {
    const bool av = get_bit(x, 0), bv = get_bit(x, 1), sv = get_bit(x, 2);
    Bits in{static_cast<std::uint8_t>(av), static_cast<std::uint8_t>(bv),
            static_cast<std::uint8_t>(sv)};
    const Bits out = sim.step(in);
    ASSERT_EQ(out.size(), 9u);
    EXPECT_EQ(out[0], av && bv);
    EXPECT_EQ(out[1], av || bv);
    EXPECT_EQ(out[2], !(av && bv));
    EXPECT_EQ(out[3], !(av || bv));
    EXPECT_EQ(out[4], av != bv);
    EXPECT_EQ(out[5], av == bv);
    EXPECT_EQ(out[6], sv ? bv : av);
    EXPECT_EQ(out[7], !av);
    EXPECT_EQ(out[8], 1);
  }
}

TEST(ClsSim, StartsAllX) {
  const Netlist n = toggle_circuit();
  ClsSimulator sim(n);
  EXPECT_FALSE(sim.is_fully_initialized());
  EXPECT_EQ(sim.state(), trits_from_string("X"));
}

TEST(ClsSim, DefiniteInputsOnDefiniteStateMatchBinary) {
  // BinarySimulator is a view of ClsSimulator, so the independent Boolean
  // reference here is the packed engine on definite lanes: one lane per
  // random non-zero power-up state, table cells included.
  Rng rng(33);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_latches = 3;
  opt.num_gates = 30;
  opt.table_probability = 0.3;
  const unsigned lanes = 4;
  for (int trial = 0; trial < 5; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    PackedTernarySimulator psim(n, lanes);
    std::vector<ClsSimulator> tsims;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      Bits state(psim.num_latches());
      do {
        for (auto& v : state) v = rng.coin();
      } while (!state.empty() && pack_bits(state) == 0);
      for (unsigned l = 0; l < psim.num_latches(); ++l) {
        psim.set_state_trit(l, lane, to_trit(state[l] != 0));
      }
      tsims.emplace_back(n);
      tsims.back().set_state(to_trits(state));
    }
    for (int step = 0; step < 20; ++step) {
      Bits in(psim.num_inputs());
      for (auto& v : in) v = rng.coin();
      psim.step_broadcast(to_trits(in));
      for (unsigned lane = 0; lane < lanes; ++lane) {
        const Trits want = tsims[lane].step(in);
        Bits lowered;
        ASSERT_TRUE(try_lower_to_bits(want, lowered));
        for (unsigned o = 0; o < psim.num_outputs(); ++o) {
          EXPECT_EQ(psim.output_trit(o, lane), want[o]);
        }
      }
    }
  }
}

TEST(ClsSim, LosesComplementCorrelation) {
  // The paper's Section 5 observation on design D: input 0 really resets
  // the latch, but the CLS keeps it at X forever.
  const Netlist d = figure1_original();
  ClsSimulator sim(d);
  sim.step(bits_from_string("0"));
  EXPECT_FALSE(sim.is_fully_initialized());
  EXPECT_EQ(sim.state(), trits_from_string("X"));
}

TEST(ClsSim, ConservativeWrtExact) {
  // Property: whenever the CLS says 0 or 1, the exact simulator agrees.
  Rng rng(55);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 20;
  for (int trial = 0; trial < 10; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    ClsSimulator cls(n);
    ExactTernarySimulator exact(n);
    for (int step = 0; step < 12; ++step) {
      Bits in(cls.num_inputs());
      for (auto& v : in) v = rng.coin();
      const Trits c = cls.step(in);
      const Trits e = exact.step(in);
      ASSERT_EQ(c.size(), e.size());
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (is_definite(c[i])) {
          EXPECT_EQ(c[i], e[i]) << "CLS must be conservative";
        }
      }
    }
  }
}

TEST(ClsSim, TableCellsPropagateLocally) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const TableId t = n.add_table(TruthTable::half_adder());
  const NodeId ha = n.add_table_cell(t, "ha");
  const NodeId latch = n.add_latch("L");
  const NodeId o1 = n.add_output("sum");
  const NodeId o2 = n.add_output("carry");
  n.connect(a, ha, 0);
  n.connect(PortRef(latch, 0), PinRef(ha, 1));
  n.connect(PortRef(ha, 0), PinRef(o1, 0));
  n.connect(PortRef(ha, 1), PinRef(latch, 0));  // carry feeds the latch...
  n.connect(PortRef(ha, 1), PinRef(o2, 0));     // ...and is observable
  n.junctionize();
  n.check_valid(true);

  ClsSimulator sim(n);
  // Latch X, input 0: sum = X, carry = 0 (definite despite the X operand).
  const Trits out = sim.step(bits_from_string("0"));
  EXPECT_EQ(out[0], kTX);
  EXPECT_EQ(out[1], kT0);
}

TEST(ExactSim, TracksStateSet) {
  const Netlist n = toggle_circuit();
  ExactTernarySimulator sim(n);
  EXPECT_EQ(sim.current_states().size(), 2u);
  // out = t: from {0,1} the output is X.
  const Trits out = sim.step(bits_from_string("0"));
  EXPECT_EQ(out[0], kTX);
}

TEST(ExactSim, ResetFromTernary) {
  const Netlist n = toggle_circuit();
  ExactTernarySimulator sim(n);
  sim.reset_from_ternary(trits_from_string("1"));
  EXPECT_EQ(sim.current_states(), std::vector<std::uint64_t>{1});
  EXPECT_EQ(sim.step(bits_from_string("0"))[0], kT1);
}

TEST(ExactSim, StateAbstraction) {
  const Netlist n = testing::inverter_pipeline();
  ExactTernarySimulator sim(n);
  EXPECT_EQ(sim.state_abstraction(), trits_from_string("XX"));
  sim.reset_from_states({0b01});
  EXPECT_EQ(sim.state_abstraction(), trits_from_string("10"));
  sim.reset_from_states({0b01, 0b11});
  EXPECT_EQ(sim.state_abstraction(), trits_from_string("1X"));
}

TEST(ExactSim, RefinesClsOnRandomCircuits) {
  // Exact never reports X where the structure forces a definite value;
  // formally: exact(t) is a refinement of cls(t) pointwise.
  Rng rng(77);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 5;
  opt.num_gates = 25;
  for (int trial = 0; trial < 8; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    ClsSimulator cls(n);
    ExactTernarySimulator exact(n);
    for (int step = 0; step < 10; ++step) {
      Bits in(cls.num_inputs());
      for (auto& v : in) v = rng.coin();
      const Trits c = cls.step(in);
      const Trits e = exact.step(in);
      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_TRUE(refines(c[i], e[i]));
      }
    }
  }
}

TEST(ExactSim, CapacityGuard) {
  Netlist n;
  const NodeId in = n.add_input("i");
  PortRef prev(in, 0);
  for (int i = 0; i < 25; ++i) {
    const NodeId l = n.add_latch();
    n.connect(prev, PinRef(l, 0));
    prev = PortRef(l, 0);
  }
  const NodeId o = n.add_output("o");
  n.connect(prev, PinRef(o, 0));
  EXPECT_THROW(ExactTernarySimulator(n, /*state_cap=*/1 << 10),
               InvalidArgument);
}

// ParallelSim: the packed ternary engine on definite lanes is the
// bit-parallel Boolean simulator.

TEST(ParallelSim, MatchesSerialAcrossLanes) {
  Rng rng(88);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_latches = 6;
  opt.num_gates = 40;
  opt.table_probability = 0.3;
  const Netlist n = random_netlist(opt, rng);

  const unsigned lanes = 100;
  PackedTernarySimulator psim(n, lanes);
  std::vector<BinarySimulator> serial;
  std::vector<Bits> states(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    states[lane].resize(psim.num_latches());
    for (auto& v : states[lane]) v = rng.coin();
    for (unsigned l = 0; l < psim.num_latches(); ++l) {
      psim.set_state_trit(l, lane, to_trit(states[lane][l] != 0));
    }
    serial.emplace_back(n);
    serial.back().set_state(states[lane]);
  }
  for (int step = 0; step < 8; ++step) {
    Bits in(psim.num_inputs());
    for (auto& v : in) v = rng.coin();
    psim.step_broadcast(to_trits(in));
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const Bits expected = serial[lane].step(in);
      for (unsigned o = 0; o < psim.num_outputs(); ++o) {
        EXPECT_EQ(psim.output_trit(o, lane), to_trit(expected[o] != 0));
      }
      EXPECT_EQ(psim.state_lane(lane), to_trits(serial[lane].state()));
    }
  }
}

TEST(ParallelSim, PackedInputsPerLane) {
  const Netlist n = and2_circuit();
  PackedTernarySimulator sim(n, 4);
  // Lane l gets inputs (a, b) = bits of l.
  PackedTrits packed(2, 4);
  for (unsigned lane = 0; lane < 4; ++lane) {
    packed.set(0, lane, to_trit(get_bit(lane, 0)));
    packed.set(1, lane, to_trit(get_bit(lane, 1)));
  }
  sim.step_packed(packed);
  EXPECT_EQ(sim.output_trit(0, 0), kT0);
  EXPECT_EQ(sim.output_trit(0, 1), kT0);
  EXPECT_EQ(sim.output_trit(0, 2), kT0);
  EXPECT_EQ(sim.output_trit(0, 3), kT1);
}

TEST(ParallelSim, BroadcastState) {
  const Netlist n = toggle_circuit();
  PackedTernarySimulator sim(n, 70);  // spans two words
  sim.set_state_broadcast(trits_from_string("1"));
  sim.step_broadcast(trits_from_string("0"));
  for (unsigned lane = 0; lane < 70; ++lane) {
    EXPECT_EQ(sim.output_trit(0, lane), kT1);
  }
}

}  // namespace
}  // namespace rtv
