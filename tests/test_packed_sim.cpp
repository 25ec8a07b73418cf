// Packed ternary engine: word-level trit algebra against the scalar trit
// functions, and the 64-lane simulator against ClsSimulator/BinarySimulator
// lane-for-lane on hundreds of random netlists (including all-X power-up,
// table cells, junctions, ragged batches, and >64-lane tail masking).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "sim/binary_sim.hpp"
#include "sim/cls_sim.hpp"
#include "sim/packed_sim.hpp"
#include "sim/packed_vectors.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

constexpr Trit kTrits[] = {Trit::kZero, Trit::kOne, Trit::kX};

Trits random_trits(std::size_t n, Rng& rng) {
  Trits v(n);
  for (Trit& t : v) t = static_cast<Trit>(rng.below(3));
  return v;
}

Bits random_bits(std::size_t n, Rng& rng) {
  Bits v(n);
  for (auto& b : v) b = rng.coin();
  return v;
}

RandomCircuitOptions small_options(Rng& rng, bool tables) {
  RandomCircuitOptions opt;
  opt.num_inputs = 1 + static_cast<unsigned>(rng.below(4));
  opt.num_outputs = 1 + static_cast<unsigned>(rng.below(3));
  opt.num_gates = 4 + static_cast<unsigned>(rng.below(24));
  opt.num_latches = static_cast<unsigned>(rng.below(6));
  opt.table_probability = tables ? 0.4 : 0.0;
  return opt;
}

// ---------------------------------------------------------------------------
// TritWord algebra: every lane of the word ops must equal the scalar trit
// functions, for every input combination.
// ---------------------------------------------------------------------------

TEST(PackedVectors, UnaryAndBinaryOpsMatchScalarTritFunctions) {
  // Lanes 0..8 enumerate all 9 (a, b) trit pairs at once.
  TritWord wa{}, wb{};
  unsigned lane = 0;
  for (const Trit a : kTrits) {
    for (const Trit b : kTrits) {
      wa = set_trit(wa, lane, a);
      wb = set_trit(wb, lane, b);
      ++lane;
    }
  }
  const TritWord wand = and_w(wa, wb);
  const TritWord wor = or_w(wa, wb);
  const TritWord wxor = xor_w(wa, wb);
  const TritWord wnot = not_w(wa);
  lane = 0;
  for (const Trit a : kTrits) {
    for (const Trit b : kTrits) {
      EXPECT_EQ(get_trit(wand, lane), and3(a, b)) << lane;
      EXPECT_EQ(get_trit(wor, lane), or3(a, b)) << lane;
      EXPECT_EQ(get_trit(wxor, lane), xor3(a, b)) << lane;
      EXPECT_EQ(get_trit(wnot, lane), not3(a)) << lane;
      ++lane;
    }
  }
}

TEST(PackedVectors, MuxMatchesScalarTernaryMux) {
  // Lanes 0..26 enumerate all 27 (s, a, b) trit triples at once.
  TritWord ws{}, wa{}, wb{};
  unsigned lane = 0;
  for (const Trit s : kTrits) {
    for (const Trit a : kTrits) {
      for (const Trit b : kTrits) {
        ws = set_trit(ws, lane, s);
        wa = set_trit(wa, lane, a);
        wb = set_trit(wb, lane, b);
        ++lane;
      }
    }
  }
  const TritWord wmux = mux_w(ws, wa, wb);
  lane = 0;
  for (const Trit s : kTrits) {
    for (const Trit a : kTrits) {
      for (const Trit b : kTrits) {
        EXPECT_EQ(get_trit(wmux, lane), mux3(s, a, b)) << lane;
        ++lane;
      }
    }
  }
}

TEST(PackedVectors, OpsPreserveCanonicalEncoding) {
  // ones & unk must stay 0 through every op, for every input pair.
  for (const Trit a : kTrits) {
    for (const Trit b : kTrits) {
      const TritWord wa = trit_word_fill(a);
      const TritWord wb = trit_word_fill(b);
      for (const TritWord r : {not_w(wa), and_w(wa, wb), or_w(wa, wb),
                               xor_w(wa, wb), mux_w(wa, wb, wa)}) {
        EXPECT_EQ(r.ones & r.unk, 0u);
      }
    }
  }
}

TEST(PackedVectors, PackedTritsSetGetAndBroadcast) {
  Rng rng(11);
  PackedTrits p(3, 70);  // two words, partial tail
  EXPECT_EQ(p.words(), 2u);
  std::vector<Trits> want(70);
  for (unsigned lane = 0; lane < 70; ++lane) {
    want[lane] = random_trits(3, rng);
    p.set_lane(lane, want[lane]);
  }
  for (unsigned lane = 0; lane < 70; ++lane) {
    EXPECT_EQ(p.lane(lane), want[lane]) << lane;
  }
  for (unsigned i = 0; i < 3; ++i) p.broadcast(i, Trit::kX);
  for (unsigned lane = 0; lane < 70; ++lane) {
    for (unsigned i = 0; i < 3; ++i) EXPECT_EQ(p.get(i, lane), Trit::kX);
  }
}

// ---------------------------------------------------------------------------
// Simulator cross-checks against the scalar engines.
// ---------------------------------------------------------------------------

TEST(PackedSim, BroadcastStepMatchesScalarClsOnRandomNetlists) {
  Rng rng(401);
  for (unsigned round = 0; round < 40; ++round) {
    const Netlist n = random_netlist(small_options(rng, round % 2 == 1), rng);
    ClsSimulator scalar(n);
    PackedTernarySimulator packed(n, 5);
    for (unsigned cycle = 0; cycle < 6; ++cycle) {
      const Trits state = random_trits(scalar.num_latches(), rng);
      scalar.set_state(state);
      packed.set_state_broadcast(state);
      const Trits in = random_trits(scalar.num_inputs(), rng);
      const Trits want = scalar.step(in);
      packed.step_broadcast(in);
      for (unsigned lane = 0; lane < packed.lanes(); ++lane) {
        for (unsigned o = 0; o < packed.num_outputs(); ++o) {
          EXPECT_EQ(packed.output_trit(o, lane), want[o]);
        }
        EXPECT_EQ(packed.state_lane(lane), scalar.state());
      }
    }
  }
}

TEST(PackedSim, PerLaneStatesAndInputsStayIndependent) {
  // Each lane gets its own random state and input; every lane must agree
  // with an independent scalar transition-function query.
  Rng rng(402);
  for (unsigned round = 0; round < 30; ++round) {
    const Netlist n = random_netlist(small_options(rng, round % 3 == 0), rng);
    ClsSimulator scalar(n);
    const unsigned lanes = 1 + static_cast<unsigned>(rng.below(7));
    PackedTernarySimulator packed(n, lanes);
    std::vector<Trits> states(lanes), inputs(lanes);
    PackedTrits packed_in(packed.num_inputs(), lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      states[lane] = random_trits(packed.num_latches(), rng);
      inputs[lane] = random_trits(packed.num_inputs(), rng);
      for (unsigned l = 0; l < packed.num_latches(); ++l) {
        packed.set_state_trit(l, lane, states[lane][l]);
      }
      packed_in.set_lane(lane, inputs[lane]);
    }
    packed.step_packed(packed_in);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      Trits want_out, want_next;
      scalar.eval(states[lane], inputs[lane], want_out, want_next);
      for (unsigned o = 0; o < packed.num_outputs(); ++o) {
        EXPECT_EQ(packed.output_trit(o, lane), want_out[o]);
      }
      EXPECT_EQ(packed.state_lane(lane), want_next);
    }
  }
}

TEST(PackedSim, BatchRunMatchesScalarClsFromAllX) {
  // The headline equivalence: packed_cls_responses lane i ==
  // ClsSimulator::run on
  // sequence i, from all-X power-up, over many random netlists (half with
  // table cells) and ragged sequence lengths.
  Rng rng(403);
  for (unsigned round = 0; round < 120; ++round) {
    const Netlist n = random_netlist(small_options(rng, round % 2 == 0), rng);
    const unsigned width = static_cast<unsigned>(n.primary_inputs().size());
    const unsigned lanes = 1 + static_cast<unsigned>(rng.below(9));
    std::vector<TritsSeq> tests(lanes);
    for (TritsSeq& seq : tests) {
      const unsigned len = static_cast<unsigned>(rng.below(8));
      for (unsigned t = 0; t < len; ++t) {
        seq.push_back(random_trits(width, rng));
      }
    }
    const PackedResponses got = packed_cls_responses(n, tests);
    ASSERT_EQ(got.num_lanes(), tests.size());
    for (unsigned lane = 0; lane < lanes; ++lane) {
      ClsSimulator scalar(n);
      EXPECT_EQ(got.sequence(lane), scalar.run(tests[lane])) << "lane " << lane;
    }
  }
}

TEST(PackedSim, BatchRunMatchesScalarBeyondOneWord) {
  // 130 lanes = two full words plus a partial tail word.
  Rng rng(404);
  const Netlist n = random_netlist(small_options(rng, true), rng);
  const unsigned width = static_cast<unsigned>(n.primary_inputs().size());
  std::vector<TritsSeq> tests(130);
  for (TritsSeq& seq : tests) {
    for (unsigned t = 0; t < 5; ++t) seq.push_back(random_trits(width, rng));
  }
  const PackedResponses got = packed_cls_responses(n, tests);
  ASSERT_EQ(got.num_lanes(), tests.size());
  for (unsigned lane = 0; lane < tests.size(); ++lane) {
    ClsSimulator scalar(n);
    EXPECT_EQ(got.sequence(lane), scalar.run(tests[lane])) << "lane " << lane;
  }
}

TEST(PackedSim, PackedResponsesAgreesWithMaterializedSequences) {
  Rng rng(405);
  const Netlist n = random_netlist(small_options(rng, true), rng);
  const unsigned width = static_cast<unsigned>(n.primary_inputs().size());
  std::vector<TritsSeq> tests(7);
  for (unsigned lane = 0; lane < tests.size(); ++lane) {
    for (unsigned t = 0; t < lane; ++t) {
      tests[lane].push_back(random_trits(width, rng));
    }
  }
  const PackedResponses flat = packed_cls_responses(n, tests);
  ASSERT_EQ(flat.num_lanes(), tests.size());
  EXPECT_EQ(flat.num_outputs(), n.primary_outputs().size());
  for (unsigned lane = 0; lane < flat.num_lanes(); ++lane) {
    ASSERT_EQ(flat.length(lane), tests[lane].size());
    const TritsSeq seq = flat.sequence(lane);
    ClsSimulator scalar(n);
    EXPECT_EQ(seq, scalar.run(tests[lane]));
    for (std::size_t t = 0; t < seq.size(); ++t) {
      for (unsigned o = 0; o < flat.num_outputs(); ++o) {
        EXPECT_EQ(flat.at(lane, t, o), seq[t][o]);
        EXPECT_EQ(flat.lane_data(lane)[t * flat.num_outputs() + o], seq[t][o]);
      }
    }
  }
}

TEST(PackedSim, BinaryRunBatchMatchesScalarBinarySimulator) {
  // Definite lanes from one shared definite power-up state, ragged Boolean
  // sequences chunked through pack_cycle_inputs: every lane is a Boolean
  // run and agrees with BinarySimulator::run from that state.
  Rng rng(406);
  for (unsigned round = 0; round < 40; ++round) {
    const Netlist n = random_netlist(small_options(rng, false), rng);
    const unsigned width = static_cast<unsigned>(n.primary_inputs().size());
    const Bits state = random_bits(n.latches().size(), rng);
    const unsigned lanes = 1 + static_cast<unsigned>(rng.below(6));
    std::vector<BitsSeq> tests(lanes);
    std::vector<TritsSeq> lifted(lanes);
    std::size_t max_len = 0;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const unsigned len = static_cast<unsigned>(rng.below(7));
      for (unsigned t = 0; t < len; ++t) {
        tests[lane].push_back(random_bits(width, rng));
      }
      lifted[lane] = to_trits(tests[lane]);
      max_len = std::max<std::size_t>(max_len, len);
    }
    PackedTernarySimulator packed(n, lanes);
    packed.set_state_broadcast(to_trits(state));
    PackedTrits cycle_inputs(width, lanes);
    std::vector<BitsSeq> got(lanes);
    for (std::size_t t = 0; t < max_len; ++t) {
      pack_cycle_inputs(lifted, 0, lanes, t, Trit::kZero, &cycle_inputs);
      packed.step_packed(cycle_inputs);
      for (unsigned lane = 0; lane < lanes; ++lane) {
        if (t >= tests[lane].size()) continue;
        Trits out(packed.num_outputs());
        for (unsigned o = 0; o < packed.num_outputs(); ++o) {
          out[o] = packed.output_trit(o, lane);
        }
        Bits bits;
        ASSERT_TRUE(try_lower_to_bits(out, bits)) << "lane " << lane;
        got[lane].push_back(std::move(bits));
      }
    }
    for (unsigned lane = 0; lane < lanes; ++lane) {
      BinarySimulator scalar(n);
      scalar.set_state(state);
      EXPECT_EQ(got[lane], scalar.run(tests[lane])) << "lane " << lane;
    }
  }
}

TEST(PackedSim, AllXPowerUpFlushesThroughShiftRegister) {
  // Definite inputs push the power-up Xs out of a shift register one stage
  // per cycle: the output stays X for exactly `depth` cycles.
  const unsigned depth = 8;
  const Netlist n = shift_register(depth);
  PackedTernarySimulator sim(n, 64);
  for (unsigned cycle = 0; cycle < 2 * depth; ++cycle) {
    sim.step_broadcast(Trits{to_trit(cycle % 2 == 0)});
    for (unsigned lane = 0; lane < 64; lane += 21) {
      const Trit got = sim.output_trit(0, lane);
      if (cycle < depth) {
        EXPECT_EQ(got, Trit::kX) << "cycle " << cycle;
      } else {
        EXPECT_EQ(got, to_trit((cycle - depth) % 2 == 0)) << "cycle " << cycle;
      }
    }
  }
}

TEST(PackedSim, ClsFaultSimulateMatchesScalarClsDetection) {
  Rng rng(407);
  for (unsigned round = 0; round < 12; ++round) {
    const Netlist n = random_netlist(small_options(rng, round % 4 == 0), rng);
    const unsigned width = static_cast<unsigned>(n.primary_inputs().size());
    std::vector<Fault> faults = enumerate_faults(n);
    if (faults.size() > 12) faults.resize(12);
    std::vector<BitsSeq> tests(5);
    for (BitsSeq& seq : tests) {
      for (unsigned t = 0; t < 4; ++t) seq.push_back(random_bits(width, rng));
    }
    const FaultSimResult got = cls_fault_simulate(n, faults, tests);
    ASSERT_EQ(got.detected.size(), faults.size());
    std::size_t want_detected = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      bool want = false;
      for (const BitsSeq& test : tests) {
        if (cls_test_detects(n, faults[i], test)) {
          want = true;
          break;
        }
      }
      EXPECT_EQ(got.detected[i], want) << "fault " << i;
      want_detected += want;
    }
    EXPECT_EQ(got.num_detected, want_detected);
  }
}

TEST(PackedSim, FaultSimulateRoutesToClsMode) {
  Rng rng(408);
  const Netlist n = testing::toggle_circuit();
  const std::vector<Fault> faults = enumerate_faults(n);
  std::vector<BitsSeq> tests(2);
  for (BitsSeq& seq : tests) {
    for (unsigned t = 0; t < 6; ++t) seq.push_back(random_bits(1, rng));
  }
  FaultSimOptions options;
  options.mode = FaultSimMode::kCls;
  const FaultSimResult via_options = fault_simulate(n, faults, tests, options);
  const FaultSimResult direct = cls_fault_simulate(n, faults, tests);
  EXPECT_EQ(via_options.detected, direct.detected);
  EXPECT_EQ(via_options.num_detected, direct.num_detected);
}

TEST(PackedSim, ClsRunBatchStaticEntryMatchesScalar) {
  Rng rng(409);
  const Netlist n = testing::toggle_circuit();
  std::vector<TritsSeq> tests(3);
  for (TritsSeq& seq : tests) {
    for (unsigned t = 0; t < 5; ++t) seq.push_back(random_trits(1, rng));
  }
  const PackedResponses got = packed_cls_responses(n, tests);
  for (unsigned lane = 0; lane < tests.size(); ++lane) {
    ClsSimulator scalar(n);
    EXPECT_EQ(got.sequence(lane), scalar.run(tests[lane]));
  }
}

}  // namespace
}  // namespace rtv
