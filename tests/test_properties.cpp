// Cross-cutting property suites (parameterized sweeps over seeds/shapes):
//  * CLS monotonicity in the information order (more definite inputs can
//    only make outputs more definite) — the semantic backbone of Section 5;
//  * CLS conservativeness w.r.t. the exact simulator;
//  * simulator/STG/packed-simulator agreement on definite values;
//  * .rnl round-trip fidelity on random designs.

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/random_circuits.hpp"
#include "io/rnl_format.hpp"
#include "sim/binary_sim.hpp"
#include "sim/cls_sim.hpp"
#include "sim/exact_sim.hpp"
#include "sim/packed_sim.hpp"
#include "stg/stg.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

struct Shape {
  std::uint64_t seed;
  unsigned gates;
  unsigned latches;
  double tables;
};

Netlist make(const Shape& shape) {
  Rng rng(shape.seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 3;
  opt.num_outputs = 3;
  opt.num_gates = shape.gates;
  opt.num_latches = shape.latches;
  opt.table_probability = shape.tables;
  opt.latch_after_gate_probability = 0.15;
  return random_netlist(opt, rng);
}

class CircuitProperty : public ::testing::TestWithParam<Shape> {};

/// Pointwise information refinement: X entries of `coarse` may be anything
/// in `fine`; definite entries must match.
bool refines_vec(const Trits& coarse, const Trits& fine) {
  if (coarse.size() != fine.size()) return false;
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    if (!refines(coarse[i], fine[i])) return false;
  }
  return true;
}

TEST_P(CircuitProperty, ClsIsMonotoneInInformationOrder) {
  const Netlist n = make(GetParam());
  Rng rng(GetParam().seed ^ 0x5555);
  ClsSimulator sim(n);
  for (int trial = 0; trial < 30; ++trial) {
    // Random ternary state/input, plus a refinement replacing some Xs by
    // definite values.
    Trits state(n.latches().size());
    Trits input(n.primary_inputs().size());
    for (auto& t : state) t = static_cast<Trit>(rng.below(3));
    for (auto& t : input) t = static_cast<Trit>(rng.below(3));
    Trits state_f = state, input_f = input;
    for (auto& t : state_f) {
      if (t == kTX && rng.coin()) t = to_trit(rng.coin());
    }
    for (auto& t : input_f) {
      if (t == kTX && rng.coin()) t = to_trit(rng.coin());
    }
    Trits out, next, out_f, next_f;
    sim.eval(state, input, out, next);
    sim.eval(state_f, input_f, out_f, next_f);
    EXPECT_TRUE(refines_vec(out, out_f));
    EXPECT_TRUE(refines_vec(next, next_f));
  }
}

TEST_P(CircuitProperty, ClsIsConservativeWrtExact) {
  const Netlist n = make(GetParam());
  if (n.num_latches() > 16) GTEST_SKIP() << "exact-sim capacity";
  Rng rng(GetParam().seed ^ 0xaaaa);
  ClsSimulator cls(n);
  ExactTernarySimulator exact(n);
  for (int t = 0; t < 16; ++t) {
    Bits in(n.primary_inputs().size());
    for (auto& v : in) v = rng.coin();
    const Trits c = cls.step(in);
    const Trits e = exact.step(in);
    EXPECT_TRUE(refines_vec(c, e)) << "cycle " << t;
  }
}

TEST_P(CircuitProperty, BinaryParallelAndStgAgree) {
  const Netlist n = make(GetParam());
  if (n.num_latches() > 10) GTEST_SKIP() << "STG capacity";
  const Stg stg = Stg::extract(n);
  BinarySimulator sim(n);
  PackedTernarySimulator psim(n, 8);
  Rng rng(GetParam().seed ^ 0x1234);
  std::uint32_t stg_state =
      static_cast<std::uint32_t>(rng.below(stg.num_states()));
  sim.set_state(unpack_bits(stg_state, static_cast<unsigned>(n.num_latches())));
  for (unsigned l = 0; l < psim.num_latches(); ++l) {
    for (unsigned lane = 0; lane < 8; ++lane) {
      psim.set_state_trit(l, lane, to_trit(get_bit(stg_state, l)));
    }
  }
  for (int t = 0; t < 16; ++t) {
    Bits in(n.primary_inputs().size());
    for (auto& v : in) v = rng.coin();
    const std::uint64_t symbol = pack_bits(in);
    const std::uint64_t expected_out = stg.output(stg_state, symbol);
    stg_state = stg.next_state(stg_state, symbol);
    const Bits out = sim.step(in);
    psim.step_broadcast(to_trits(in));
    EXPECT_EQ(pack_bits(out), expected_out);
    for (unsigned o = 0; o < psim.num_outputs(); ++o) {
      EXPECT_EQ(psim.output_trit(o, 3), to_trit(out[o] != 0));
    }
  }
}

TEST_P(CircuitProperty, RnlRoundTripPreservesBehaviour) {
  const Netlist n = make(GetParam());
  const Netlist parsed = read_rnl(write_rnl(n));
  BinarySimulator a(n), b(parsed);
  Rng rng(GetParam().seed ^ 0x9999);
  Bits state(n.num_latches());
  for (auto& v : state) v = rng.coin();
  a.set_state(state);
  b.set_state(state);
  for (int t = 0; t < 16; ++t) {
    Bits in(n.primary_inputs().size());
    for (auto& v : in) v = rng.coin();
    EXPECT_EQ(a.step(in), b.step(in));
  }
}

TEST_P(CircuitProperty, DelayedDesignChainIsMonotone) {
  const Netlist n = make(GetParam());
  if (n.num_latches() > 10) GTEST_SKIP() << "STG capacity";
  const Stg stg = Stg::extract(n);
  std::size_t prev = stg.num_states() + 1;
  for (unsigned k = 0; k <= 4; ++k) {
    const auto keep = states_after_delay(stg, k);
    const std::size_t count =
        static_cast<std::size_t>(std::count(keep.begin(), keep.end(), true));
    EXPECT_LE(count, prev);
    EXPECT_GE(count, 1u);
    prev = count;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CircuitProperty,
    ::testing::Values(Shape{101, 10, 2, 0.0}, Shape{102, 20, 3, 0.0},
                      Shape{103, 30, 4, 0.0}, Shape{104, 15, 3, 0.3},
                      Shape{105, 25, 4, 0.5}, Shape{106, 40, 5, 0.2},
                      Shape{107, 12, 2, 1.0}, Shape{108, 50, 5, 0.1},
                      Shape{109, 18, 3, 0.4}, Shape{110, 35, 4, 0.0}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rtv
