// End-to-end property sweeps tying the whole pipeline together:
// generate -> build graph -> optimize (min-period / min-area) -> sequence
// into atomic moves -> validate against the paper's theorems.

#include <gtest/gtest.h>

#include "core/validator.hpp"
#include "fault/fault_sim.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/rnl_format.hpp"
#include "retime/apply.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "sim/binary_sim.hpp"
#include "stg/stg.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

struct SweepCase {
  std::uint64_t seed;
  unsigned gates;
  unsigned latches;
  double table_probability;
};

class RetimingSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RetimingSweep, MinAreaEndToEnd) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_outputs = 2;
  opt.num_gates = c.gates;
  opt.num_latches = c.latches;
  opt.table_probability = c.table_probability;
  opt.latch_after_gate_probability = 0.3;
  const Netlist n = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const MinAreaResult area = min_area_retime(g);
  EXPECT_LE(area.registers_after, area.registers_before);

  const RetimingValidation v = validate_retiming(n, g, area.lag);
  EXPECT_TRUE(v.theorems_hold) << v.summary();
  EXPECT_TRUE(v.cls.equivalent) << v.summary();
  v.retimed.check_valid(true);
  EXPECT_EQ(static_cast<std::int64_t>(v.retimed.num_latches()),
            area.registers_after);
}

TEST_P(RetimingSweep, MinPeriodEndToEnd) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed ^ 0xabcdef);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_outputs = 2;
  opt.num_gates = c.gates;
  opt.num_latches = c.latches;
  opt.table_probability = c.table_probability;
  opt.latch_after_gate_probability = 0.3;
  const Netlist n = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const RetimingSolution sol = min_period_retime_feas(g);
  EXPECT_LE(sol.period, g.clock_period());

  const RetimingValidation v = validate_retiming(n, g, sol.lag);
  EXPECT_TRUE(v.theorems_hold) << v.summary();
  EXPECT_TRUE(v.cls.equivalent) << v.summary();
  // The physically realized netlist has the promised period.
  EXPECT_EQ(RetimeGraph::from_netlist(v.retimed).clock_period(), sol.period);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RetimingSweep,
    ::testing::Values(SweepCase{1, 10, 3, 0.0}, SweepCase{2, 14, 4, 0.0},
                      SweepCase{3, 12, 3, 0.3}, SweepCase{4, 16, 4, 0.2},
                      SweepCase{5, 10, 2, 0.5}, SweepCase{6, 18, 4, 0.0},
                      SweepCase{7, 12, 4, 0.4}, SweepCase{8, 15, 3, 0.1}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(Integration, PipelineRetimeRoundTripBehaviour) {
  // Retimed pipelined adder still adds (after flushing), for both the
  // min-period and min-area retimings.
  const unsigned bits = 4;
  const Netlist n = pipelined_adder(bits, 2);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  for (const auto& lag :
       {min_period_retime_feas(g).lag, min_area_retime(g).lag}) {
    const Netlist r = apply_retiming(n, g, lag);
    BinarySimulator sim(r);
    Rng rng(3);
    for (int trial = 0; trial < 5; ++trial) {
      const std::uint64_t a = rng.below(1 << bits);
      const std::uint64_t b = rng.below(1 << bits);
      Bits in(2 * bits);
      for (unsigned i = 0; i < bits; ++i) {
        in[i] = (a >> i) & 1;
        in[bits + i] = (b >> i) & 1;
      }
      Bits out;
      for (int t = 0; t < 8; ++t) out = sim.step(in);
      std::uint64_t sum = 0;
      for (unsigned i = 0; i <= bits; ++i) {
        if (out[i]) sum |= (1ULL << i);
      }
      EXPECT_EQ(sum, a + b);
    }
  }
}

TEST(Integration, SerializedRetimedDesignStillValidates) {
  // rnl round-trip composes with the validator.
  Rng rng(12);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 4;
  opt.num_gates = 12;
  const Netlist n = random_netlist(opt, rng);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const MinAreaResult area = min_area_retime(g);
  const Netlist retimed = apply_retiming(n, g, area.lag);
  const Netlist n2 = read_rnl(write_rnl(n));
  const Netlist retimed2 = read_rnl(write_rnl(retimed));
  const auto cls = check_cls_equivalence(n2, retimed2);
  EXPECT_TRUE(cls.equivalent);
}

TEST(Integration, FaultCoverageNeverImprovedByUnsafeRetiming) {
  // Aggregate Section 2.2: exact fault coverage of a fixed random test set
  // on D vs the forward-junction-retimed C — coverage may only drop or
  // stay (it cannot grow, because C's behaviours superset D's makes
  // detection HARDER, never easier... empirically: assert it drops for
  // the paper circuit and never rises across random circuits).
  Rng rng(31);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 3;
  opt.num_gates = 10;
  opt.latch_after_gate_probability = 0.3;
  int compared = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    // Find an enabled forward move across a junction.
    RetimingMove unsafe{NodeId(), MoveDirection::kForward};
    for (const auto& m : enabled_moves(n)) {
      if (m.direction == MoveDirection::kForward &&
          n.kind(m.element) == CellKind::kJunc &&
          n.num_ports(m.element) >= 2) {
        unsafe = m;
        break;
      }
    }
    if (!unsafe.element.valid()) continue;
    Netlist c = n;
    apply_move(c, unsafe);

    std::vector<BitsSeq> tests;
    for (int t = 0; t < 4; ++t) {
      BitsSeq test;
      for (int step = 0; step < 5; ++step) {
        Bits in(n.primary_inputs().size());
        for (auto& v : in) v = rng.coin();
        test.push_back(in);
      }
      tests.push_back(test);
    }
    // Faults on combinational cells that exist in both designs.
    std::vector<Fault> faults;
    for (const Fault& f : collapse_faults(n)) {
      if (is_combinational(n.kind(f.site.node)) &&
          !c.sinks(f.site).empty()) {
        faults.push_back(f);
      }
    }
    if (faults.empty()) continue;
    const FaultSimResult rd = fault_simulate(n, faults, tests);
    const FaultSimResult rc = fault_simulate(c, faults, tests);
    EXPECT_LE(rc.num_detected, rd.num_detected) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(Integration, SequencedMinPeriodKeepsStgDelayEquivalence) {
  Rng rng(47);
  RandomCircuitOptions opt;
  opt.num_inputs = 2;
  opt.num_latches = 3;
  opt.num_gates = 10;
  opt.latch_after_gate_probability = 0.4;
  int checked = 0;
  for (int trial = 0; trial < 8 && checked < 4; ++trial) {
    const Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    const RetimingSolution sol = min_period_retime_feas(g);
    SequencedRetiming seq = sequence_retiming(n, g, sol.lag);
    if (seq.retimed.num_latches() > 9 || n.num_latches() > 9) continue;
    const Stg d = Stg::extract(n);
    const Stg c = Stg::extract(seq.retimed);
    const int min_delay = min_delay_for_implication(c, d, 20);
    ASSERT_GE(min_delay, 0) << "Cor 4.3 violated";
    EXPECT_LE(static_cast<std::size_t>(min_delay),
              std::max<std::size_t>(seq.stats.max_forward_per_non_justifiable,
                                    0))
        << "Thm 4.5 violated";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace rtv
