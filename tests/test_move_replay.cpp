// Parity of the one move replay (MoveReplay, retime/sequencer.hpp) with the
// graph weight replay it replaced in the lint plan analyzer. The weight
// replay lives on here, as reference_analyze_plan, and nowhere in src/: in
// junction-normal form every wire chain is a pure latch run, so "a latch
// sits directly on this pin/port" is exactly "the corresponding retiming
// graph edge has weight >= 1", and a move is a unit weight transfer between
// a vertex's in- and out-edges.
//
// On >= 300 seeded random designs and the generator families, for the
// sequencer's min-area and min-period plans and for random plans that mix
// enabled, disabled and bad-element moves:
//   * analyze_plan and the oracle agree move by move on element_ok,
//     enabled, reason code, class and the census;
//   * every certificate the replays take equals
//     reference_certify_plan_moves (tests/test_helpers.hpp);
//   * analyze_move_sequence over the sequencer's moves retimes to the same
//     bytes as sequence_retiming.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/plan.hpp"
#include "core/safety.hpp"
#include "gen/datapath.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/rnl_format.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::reference_certify_plan_moves;

struct OracleMove {
  bool element_ok = false;
  bool enabled = false;
  MoveClass cls;
  MoveReason reason;
};

struct OracleAnalysis {
  bool analyzable = false;
  bool feasible = false;
  std::vector<OracleMove> moves;
  MoveSequenceStats stats;
};

/// The Section-4 census of the well-formed moves, counted on its own.
MoveSequenceStats reference_census(const Netlist& netlist,
                                   const std::vector<OracleMove>& checks,
                                   const std::vector<RetimingMove>& moves) {
  MoveSequenceStats stats;
  std::vector<std::size_t> forward(netlist.num_slots(), 0);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (!checks[i].element_ok) continue;
    ++stats.total_moves;
    if (checks[i].cls.direction == MoveDirection::kBackward) {
      ++stats.backward_moves;
    } else {
      ++stats.forward_moves;
      if (!checks[i].cls.justifiable) {
        ++stats.forward_across_non_justifiable;
        stats.max_forward_per_non_justifiable =
            std::max(stats.max_forward_per_non_justifiable,
                     ++forward[moves[i].element.value]);
      }
    }
  }
  return stats;
}

/// The plan analyzer as a latch-count replay on the retiming graph, never
/// touching the netlist. Reason codes name the first failing pin (in-edges
/// are in pin order) or the lowest failing port.
OracleAnalysis reference_analyze_plan(const Netlist& netlist,
                                      const std::vector<RetimingMove>& moves) {
  OracleAnalysis analysis;
  for (const RetimingMove& move : moves) {
    OracleMove check;
    const NodeId e = move.element;
    if (!e.valid() || e.value >= netlist.num_slots() || netlist.is_dead(e)) {
      check.reason.code = MoveReason::kDeadElement;
    } else if (!is_combinational(netlist.kind(e))) {
      check.reason.code = MoveReason::kNotCombinational;
    } else {
      check.element_ok = true;
      check.cls = classify_move(netlist, move);
    }
    analysis.moves.push_back(check);
  }
  analysis.stats = reference_census(netlist, analysis.moves, moves);

  if (!netlist.structural_violations().empty() ||
      !netlist.is_junction_normal()) {
    return analysis;
  }
  for (const NodeId latch : netlist.latches()) {
    if (netlist.sinks(PortRef(latch, 0)).empty()) return analysis;
  }
  analysis.analyzable = true;

  const RetimeGraph graph =
      RetimeGraph::from_netlist(netlist, DelayModel::kZero);
  std::vector<int> weight;
  for (const RetimeGraph::Edge& edge : graph.edges()) {
    weight.push_back(edge.weight);
  }
  analysis.feasible = true;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    OracleMove& check = analysis.moves[i];
    analysis.feasible &= check.element_ok;
    if (!check.element_ok) continue;
    const NodeId e = moves[i].element;
    // Sink counts are invariant under moves, so the input netlist decides.
    for (std::uint32_t p = 0; p < netlist.num_ports(e); ++p) {
      if (netlist.sinks(PortRef(e, p)).size() != 1) {
        check.reason = {MoveReason::kPortFanout, p};
        break;
      }
    }
    const std::uint32_t v = graph.vertex_of(e);
    const bool forward = moves[i].direction == MoveDirection::kForward;
    const std::vector<std::uint32_t>& sources = graph.in_edges(v);
    const std::vector<std::uint32_t>& sinks = graph.out_edges(v);
    if (check.reason.enabled()) {
      for (const std::uint32_t k : forward ? sources : sinks) {
        if (weight[k] >= 1) continue;
        const RetimeGraph::Edge& edge = graph.edge(k);
        if (forward) {
          check.reason = {MoveReason::kNoLatchOnPin, edge.dst_pin.pin};
          break;
        }
        if (check.reason.enabled() || edge.src_port.port < check.reason.index) {
          check.reason = {MoveReason::kNoLatchOnPort, edge.src_port.port};
        }
      }
    }
    check.enabled = check.reason.enabled();
    analysis.feasible &= check.enabled;
    if (!check.enabled) continue;
    // A self-loop edge is on both sides; its net change is zero.
    for (const std::uint32_t k : forward ? sources : sinks) --weight[k];
    for (const std::uint32_t k : forward ? sinks : sources) ++weight[k];
  }
  return analysis;
}

/// A plan of `length` moves: about half drawn from the moves enabled at
/// that position, the rest on random live nodes (mostly not enabled, or
/// latches and ports) or on ids that name no node.
std::vector<RetimingMove> random_plan(const Netlist& netlist, Rng& rng,
                                      std::size_t length) {
  Netlist scratch = netlist;
  const std::vector<NodeId> live = netlist.live_nodes();
  std::vector<RetimingMove> plan;
  while (plan.size() < length) {
    RetimingMove move{NodeId(), rng.coin() ? MoveDirection::kForward
                                           : MoveDirection::kBackward};
    const std::size_t pick = rng.below(10);
    const std::vector<RetimingMove> enabled =
        pick < 5 ? enabled_moves(scratch) : std::vector<RetimingMove>{};
    if (!enabled.empty()) {
      move = enabled[rng.index(enabled.size())];
    } else if (pick < 9) {
      move.element = live[rng.index(live.size())];
    } else if (rng.coin()) {
      move.element = NodeId(static_cast<std::uint32_t>(
          netlist.num_slots() + rng.below(4)));
    }
    if (can_apply(scratch, move)) apply_move(scratch, move);
    plan.push_back(move);
  }
  return plan;
}

/// Counters that show the sweep reached every branch it claims to cover.
struct Coverage {
  std::size_t plans = 0, moves = 0, disabled = 0, bad_elements = 0;
  std::size_t unsafe_certified = 0, unsafe_uncertified = 0, by_fixpoint = 0;
  std::size_t by_reason[MoveReason::kNoLatchOnPort + 1] = {};
};

/// analyze_plan against the oracle, and the lint replay's certificates
/// against the reference certifier on the enabled moves.
void check_plan(const Netlist& netlist, const std::vector<RetimingMove>& plan,
                Coverage& coverage) {
  const std::string before = write_rnl(netlist);
  const PlanAnalysis got = analyze_plan(netlist, plan, /*certify_unsafe=*/true);
  ASSERT_EQ(write_rnl(netlist), before) << "analyze_plan mutated the netlist";
  const OracleAnalysis want = reference_analyze_plan(netlist, plan);
  ASSERT_EQ(got.analyzable, want.analyzable) << got.precondition_error;
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.stats, want.stats);
  EXPECT_EQ(got.k(), want.stats.max_forward_per_non_justifiable);
  ASSERT_EQ(got.moves.size(), plan.size());

  std::vector<RetimingMove> applied;  // the plan with its disabled moves cut
  for (std::size_t i = 0; i < plan.size(); ++i) {
    SCOPED_TRACE("move " + std::to_string(i));
    const PlanMoveCheck& g = got.moves[i];
    const OracleMove& w = want.moves[i];
    ASSERT_EQ(g.element_ok, w.element_ok);
    ASSERT_EQ(g.enabled, w.enabled);
    if (got.analyzable || !w.element_ok) {
      EXPECT_EQ(g.reason.code, w.reason.code);
      EXPECT_EQ(g.reason.index, w.reason.index);
      ++coverage.by_reason[g.reason.code];
    }
    if (w.element_ok) {
      EXPECT_EQ(g.cls.direction, w.cls.direction);
      EXPECT_EQ(g.cls.justifiable, w.cls.justifiable);
    }
    coverage.bad_elements += !w.element_ok;
    coverage.disabled += w.element_ok && !w.enabled;
    if (g.enabled) applied.push_back(plan[i]);
  }

  // The certificates of the enabled unsafe-class moves, judged at their
  // own positions.
  const std::vector<MoveCertificate> reference =
      reference_certify_plan_moves(netlist, applied);
  std::size_t position = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlanMoveCheck& g = got.moves[i];
    if (!g.enabled) {
      EXPECT_FALSE(g.certificate.has_value()) << "move " << i;
      continue;
    }
    const bool unsafe = !g.cls.preserves_safe_replacement();
    ASSERT_EQ(g.certificate.has_value(), unsafe) << "move " << i;
    if (unsafe) {
      EXPECT_EQ(g.certificate->certified, reference[position].certified)
          << "move " << i << ": " << g.certificate->reason;
      ++(g.certificate->certified ? coverage.unsafe_certified
                                  : coverage.unsafe_uncertified);
      coverage.by_fixpoint +=
          g.certificate->argument == CertificateArgument::kFixpoint;
    }
    ++position;
  }
  ++coverage.plans;
  coverage.moves += plan.size();
}

/// The sequencer's plan for `lag`: the lint replay agrees with the oracle,
/// the sequencer's certificates equal the reference, and the explicit-plan
/// replay retimes to the same bytes.
void check_lag(const Netlist& netlist, const RetimeGraph& graph,
               const std::vector<int>& lag, Coverage& coverage) {
  SequencedRetiming seq;
  const SafetyReport report = analyze_lag_retiming(netlist, graph, lag, &seq);
  ASSERT_NO_FATAL_FAILURE(check_plan(netlist, seq.moves, coverage));
  const OracleAnalysis want = reference_analyze_plan(netlist, seq.moves);
  EXPECT_TRUE(want.feasible);
  EXPECT_EQ(seq.stats, want.stats);

  // Within the certification budget every argument is tried on every move.
  ASSERT_LE(seq.moves.size() * netlist.num_slots(), 4'000'000u);
  const std::vector<MoveCertificate> reference =
      reference_certify_plan_moves(netlist, seq.moves);
  ASSERT_EQ(report.move_certificates.size(), seq.moves.size());
  for (std::size_t i = 0; i < seq.moves.size(); ++i) {
    EXPECT_EQ(report.move_certificates[i].certified, reference[i].certified)
        << "move " << i;
  }

  Netlist retimed;
  const SafetyReport again = analyze_move_sequence(netlist, seq.moves,
                                                   &retimed);
  EXPECT_EQ(write_rnl(retimed), write_rnl(seq.retimed));
  EXPECT_EQ(again.stats, seq.stats);
  ASSERT_EQ(again.move_certificates.size(), seq.moves.size());
  for (std::size_t i = 0; i < seq.moves.size(); ++i) {
    EXPECT_EQ(again.move_certificates[i].argument,
              report.move_certificates[i].argument);
    EXPECT_EQ(again.move_certificates[i].reason,
              report.move_certificates[i].reason);
  }
}

void check_design(const std::string& name, const Netlist& netlist, Rng& rng,
                  Coverage& coverage) {
  SCOPED_TRACE(name);
  const RetimeGraph graph = RetimeGraph::from_netlist(netlist);
  {
    SCOPED_TRACE("min-area");
    check_lag(netlist, graph, min_area_retime(graph).lag, coverage);
  }
  {
    SCOPED_TRACE("min-period");
    check_lag(netlist, graph, min_period_retime_feas(graph).lag, coverage);
  }
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("random plan " + std::to_string(round));
    check_plan(netlist, random_plan(netlist, rng, 4 + rng.below(24)),
               coverage);
  }
}

TEST(MoveReplay, AgreesWithTheWeightOracleOnSeededDesigns) {
  Coverage coverage;
  for (std::uint64_t seed = 0; seed < 320; ++seed) {
    Rng rng(seed * 104729 + 3);
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(3));
    opt.num_outputs = 1 + static_cast<unsigned>(rng.below(2));
    opt.num_gates = 4 + static_cast<unsigned>(rng.below(12));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(5));
    opt.table_probability = seed % 2 == 0 ? 0.0 : 0.5;
    opt.latch_after_gate_probability = 0.3;
    const Netlist n = random_netlist(opt, rng);
    check_design("seed " + std::to_string(seed), n, rng, coverage);
    if (seed % 4 == 0) {  // plus a cell whose port drives nothing
      SCOPED_TRACE("seed " + std::to_string(seed) + " dangling port");
      Netlist dangling = n;
      dangling.connect(PortRef(dangling.add_input(), 0),
                       PinRef(dangling.add_gate(CellKind::kNot, 1), 0));
      check_plan(dangling, random_plan(dangling, rng, 16), coverage);
    }
    if (HasFatalFailure()) return;
  }
  // Every branch of the comparison was reached.
  EXPECT_GE(coverage.plans, 1280u);
  EXPECT_GE(coverage.disabled, 1000u);
  EXPECT_GE(coverage.bad_elements, 1000u);
  EXPECT_GE(coverage.unsafe_certified, 10u);
  EXPECT_GE(coverage.unsafe_uncertified, 10u);
  for (std::size_t code = 0; code <= MoveReason::kNoLatchOnPort; ++code) {
    EXPECT_GE(coverage.by_reason[code], 1u) << "reason code " << code;
  }
}

TEST(MoveReplay, AgreesWithTheWeightOracleOnGeneratorFamilies) {
  const struct {
    const char* name;
    Netlist netlist;
  } families[] = {
      {"pipelined_adder(2,1)", pipelined_adder(2, 1)},
      {"pipelined_adder(3,2)", pipelined_adder(3, 2)},
      {"pipelined_adder(4,2)", pipelined_adder(4, 2)},
      {"pipelined_multiplier(2,1)", pipelined_multiplier(2, 1)},
      {"pipelined_multiplier(3,1)", pipelined_multiplier(3, 1)},
      {"controller_datapath(2)", controller_datapath(2)},
      {"shift_register(4)", shift_register(4)},
      {"lfsr(4)", lfsr(4, {0, 3})},
      {"lfsr(6)", lfsr(6, {0, 5})},
      {"twisted_ring(3)", twisted_ring(3)},
      {"figure1", figure1_original()},
      {"delayed_constant", testing::delayed_constant()},
      {"stuck_at_x", testing::stuck_at_x()},
  };
  Rng rng(2026);
  Coverage coverage;
  for (const auto& f : families) check_design(f.name, f.netlist, rng, coverage);
  EXPECT_GE(coverage.moves, 400u);
  EXPECT_GE(coverage.disabled, 20u);
  // stuck_at_x's forward moves across its constant: only the whole-design
  // fixpoint (argument 3) certifies them.
  EXPECT_GE(coverage.by_fixpoint, 1u);
}

TEST(MoveReplay, DesignsOffThePreconditionsAreCensusedNotReplayed) {
  // An un-junctionized toggle: the latch port fans out twice.
  Netlist n;
  const NodeId in = n.add_input("in");
  const NodeId out = n.add_output("out");
  const NodeId t = n.add_latch("t");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(PortRef(t, 0), PinRef(x, 0));
  n.connect(PortRef(in, 0), PinRef(x, 1));
  n.connect(PortRef(x, 0), PinRef(t, 0));
  n.connect(PortRef(t, 0), PinRef(out, 0));
  const std::vector<RetimingMove> plan{{x, MoveDirection::kForward},
                                       {t, MoveDirection::kForward},
                                       {x, MoveDirection::kBackward}};
  Coverage coverage;
  check_plan(n, plan, coverage);
  const PlanAnalysis got = analyze_plan(n, plan);
  EXPECT_FALSE(got.analyzable);
  EXPECT_EQ(got.stats.total_moves, 2u);
  EXPECT_FALSE(got.moves[0].enabled);
}

}  // namespace
}  // namespace rtv
