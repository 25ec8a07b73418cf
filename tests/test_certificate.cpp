// Thm 5.1's per-move certificate as validate's CLS gate: the records
// analyze_lag_retiming takes from the sequencer's own replay must equal
// the lint replay's (analyze_plan) on every unsafe-class move, and an
// independent copy of the older per-move-mask certifier on every move; a
// complete certificate must never be refuted by the explicit, BDD or SAT
// engine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/plan.hpp"
#include "core/safety.hpp"
#include "core/validator.hpp"
#include "core/verify.hpp"
#include "gen/datapath.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::delayed_constant;
using testing::random_legal_lag;
using testing::reference_certify_plan_moves;
using testing::stuck_at_x;

/// The older cls_certify rule: some unsafe-class move, within the moves ×
/// slots budget, and every unsafe-class move certified.
bool reference_cls_certified_safe(const Netlist& netlist,
                                  const std::vector<RetimingMove>& moves,
                                  const MoveSequenceStats& stats) {
  if (stats.forward_across_non_justifiable == 0) return false;
  if (moves.size() * netlist.num_slots() > 4'000'000) return false;
  const std::vector<MoveCertificate> certificates =
      reference_certify_plan_moves(netlist, moves);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (!classify_move(netlist, moves[i]).preserves_safe_replacement() &&
        !certificates[i].certified) {
      return false;
    }
  }
  return true;
}

/// A constant delayed into a latch loop that reaches no output, beside a
/// buffered input-to-output path: moves across the constant are
/// certified only by unobservability.
Netlist dead_loop() {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId out = n.add_output("out");
  const NodeId b = n.add_gate(CellKind::kBuf, 1, "b");
  const NodeId c = n.add_const(true, "c");
  const NodeId l1 = n.add_latch("L1");
  const NodeId l2 = n.add_latch("L2");
  const NodeId x = n.add_gate(CellKind::kXor, 2, "x");
  n.connect(a, b);
  n.connect(b, out);
  n.connect(c, l1);
  n.connect(PortRef(l1, 0), PinRef(x, 0));
  n.connect(PortRef(x, 0), PinRef(l2, 0));
  n.connect(PortRef(l2, 0), PinRef(x, 1));
  n.check_valid(true);
  return n;
}

struct Case {
  std::string name;
  Netlist netlist;
  std::vector<int> lag;
};

/// ≥ 300 seeded random designs with random legal lags (half of them with
/// table cells, whose constant output columns break all-X preservation),
/// plus the generator families under min-area, min-period and random lags.
std::vector<Case> sweep() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < 320; ++seed) {
    Rng rng(seed * 7919 + 17);
    RandomCircuitOptions opt;
    opt.num_inputs = 1 + static_cast<unsigned>(rng.below(2));
    opt.num_outputs = 1 + static_cast<unsigned>(rng.below(2));
    opt.num_gates = 4 + static_cast<unsigned>(rng.below(9));
    opt.num_latches = 1 + static_cast<unsigned>(rng.below(4));
    opt.table_probability = seed % 2 == 0 ? 0.0 : 0.5;
    opt.latch_after_gate_probability = 0.3;
    Netlist n = random_netlist(opt, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    std::vector<int> lag = random_legal_lag(g, rng);
    cases.push_back({"random seed " + std::to_string(seed), std::move(n),
                     std::move(lag)});
  }
  const struct {
    const char* name;
    Netlist netlist;
  } families[] = {
      {"pipelined_adder(2,1)", pipelined_adder(2, 1)},
      {"pipelined_adder(3,2)", pipelined_adder(3, 2)},
      {"pipelined_multiplier(2,1)", pipelined_multiplier(2, 1)},
      {"pipelined_multiplier(3,1)", pipelined_multiplier(3, 1)},
      {"controller_datapath(2)", controller_datapath(2)},
      {"shift_register(4)", shift_register(4)},
      {"lfsr(4)", lfsr(4, {0, 3})},
      {"twisted_ring(3)", twisted_ring(3)},
      {"figure1", figure1_original()},
      {"delayed_constant", delayed_constant()},
      {"stuck_at_x", stuck_at_x()},
      {"dead_loop", dead_loop()},
  };
  Rng rng(2024);
  for (const auto& f : families) {
    const RetimeGraph g = RetimeGraph::from_netlist(f.netlist);
    cases.push_back({std::string(f.name) + " min-area", f.netlist,
                     min_area_retime(g).lag});
    cases.push_back({std::string(f.name) + " min-period", f.netlist,
                     min_period_retime_feas(g).lag});
    if (g.num_vertices() > 2) {  // shift_register has no logic to move
      cases.push_back({std::string(f.name) + " random", f.netlist,
                       random_legal_lag(g, rng)});
    }
  }
  return cases;
}

TEST(Certificate, SequencerRecordsEqualTheStandaloneCertifier) {
  std::size_t moves = 0, by_fixpoint = 0, by_unobservable = 0;
  for (const Case& c : sweep()) {
    SCOPED_TRACE(c.name);
    const RetimeGraph g = RetimeGraph::from_netlist(c.netlist);
    SequencedRetiming seq;
    const SafetyReport report =
        analyze_lag_retiming(c.netlist, g, c.lag, &seq);
    const PlanAnalysis lint =
        analyze_plan(c.netlist, seq.moves, /*certify_unsafe=*/true);
    const std::vector<MoveCertificate> reference =
        reference_certify_plan_moves(c.netlist, seq.moves);
    ASSERT_EQ(report.move_certificates.size(), seq.moves.size());
    ASSERT_EQ(lint.moves.size(), seq.moves.size());
    for (std::size_t i = 0; i < seq.moves.size(); ++i) {
      SCOPED_TRACE("move " + std::to_string(i));
      const MoveCertificate& got = report.move_certificates[i];
      const std::optional<MoveCertificate>& linted = lint.moves[i].certificate;
      ASSERT_EQ(linted.has_value(),
                !seq.classes[i].preserves_safe_replacement());
      if (linted) {
        EXPECT_EQ(got.certified, linted->certified);
        EXPECT_EQ(got.argument, linted->argument);
        EXPECT_EQ(got.reason, linted->reason);
      }
      EXPECT_EQ(got.certified, reference[i].certified);
      EXPECT_EQ(got.certified, got.argument != CertificateArgument::kNone);
      by_fixpoint += got.argument == CertificateArgument::kFixpoint;
      by_unobservable += got.argument == CertificateArgument::kUnobservable;
    }
    moves += seq.moves.size();
    EXPECT_EQ(report.cls_certified_safe,
              reference_cls_certified_safe(c.netlist, seq.moves, seq.stats));
  }
  // The sweep reaches every argument, not just Theorem 5.1's.
  EXPECT_GE(moves, 1000u);
  EXPECT_GE(by_fixpoint, 1u);
  EXPECT_GE(by_unobservable, 1u);
}

TEST(Certificate, ObservableMaskIsTheSameAtEveryMovePosition) {
  for (const Case& c : sweep()) {
    SCOPED_TRACE(c.name);
    const RetimeGraph g = RetimeGraph::from_netlist(c.netlist);
    const SequencedRetiming seq = sequence_retiming(c.netlist, g, c.lag);
    const std::vector<bool> once = observable_mask(c.netlist);
    Netlist work = c.netlist;
    for (const RetimingMove& move : seq.moves) {
      const std::vector<bool> now = observable_mask(work);
      for (const NodeId id : c.netlist.live_nodes()) {
        if (!is_combinational(c.netlist.kind(id))) continue;
        ASSERT_EQ(now[id.value], once[id.value])
            << "element " << c.netlist.name(id);
      }
      apply_move(work, move);
    }
  }
}

TEST(Certificate, CompleteCertificatesAreNeverRefuted) {
  std::size_t complete = 0, incomplete = 0, refuted = 0;
  for (const Case& c : sweep()) {
    SCOPED_TRACE(c.name);
    const RetimeGraph g = RetimeGraph::from_netlist(c.netlist);
    SequencedRetiming seq;
    const SafetyReport report =
        analyze_lag_retiming(c.netlist, g, c.lag, &seq);
    const Netlist& r = seq.retimed;
    if (!report.every_move_certified()) {
      ++incomplete;
      VerifyOptions opt;
      opt.allow_static_proof = false;
      refuted += !verify_cls_equivalence(c.netlist, r, opt).equivalent;
      continue;
    }
    ++complete;
    for (const EquivalenceBackend backend :
         {EquivalenceBackend::kExplicit, EquivalenceBackend::kBdd,
          EquivalenceBackend::kSat}) {
      SCOPED_TRACE(to_string(backend));
      VerifyOptions opt;
      opt.backend = backend;
      opt.allow_static_proof = false;
      opt.sat.max_depth = 12;  // SAT may stay bounded; it must not refute
      opt.sat.max_induction_depth = 6;
      const ClsEquivalenceResult e = verify_cls_equivalence(c.netlist, r, opt);
      EXPECT_TRUE(e.equivalent) << e.summary();
      EXPECT_FALSE(e.counterexample.has_value());
      if (backend == EquivalenceBackend::kExplicit &&
          pair_bfs_applies(c.netlist, r, opt.explicit_opts)) {
        EXPECT_EQ(e.verdict, Verdict::kProven) << e.summary();
      }
    }
    // validate decides the CLS gate from the certificate alone.
    const RetimingValidation v = validate_retiming(c.netlist, g, c.lag);
    EXPECT_EQ(v.cls.verdict, Verdict::kProven);
    EXPECT_TRUE(v.cls.exhaustive);
    EXPECT_EQ(v.cls.decided_by, EquivalenceBackend::kStatic);
    EXPECT_EQ(v.cls.decided_reason.rfind(
                  "per-move certificate: " +
                      std::to_string(seq.moves.size()) + " moves (",
                  0),
              0u)
        << v.cls.decided_reason;
    EXPECT_TRUE(v.theorems_hold);
  }
  // Both outcomes occur, and the uncertified side holds real CLS changes
  // that a certifier too eager to sign would have let through.
  EXPECT_GE(complete, 300u);
  EXPECT_GE(incomplete, 10u);
  EXPECT_GE(refuted, 5u);
}

TEST(Certificate, MinAreaMultiplierPlanWithLaggedConstantsIsNotCertified) {
  const Netlist n = pipelined_multiplier(4, 1);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  SequencedRetiming seq;
  const SafetyReport report =
      analyze_lag_retiming(n, g, min_area_retime(g).lag, &seq);
  EXPECT_FALSE(report.every_move_certified());
  bool constant_uncertified = false;
  for (std::size_t i = 0; i < seq.moves.size(); ++i) {
    constant_uncertified |= !report.move_certificates[i].certified &&
                            n.kind(seq.moves[i].element) == CellKind::kConst0;
  }
  EXPECT_TRUE(constant_uncertified);
}

TEST(Certificate, ValidateFallsThroughWithoutStaticProofs) {
  // allow_static_proof = false takes the certificate out of the chain too.
  const Netlist n = figure1_original();
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  ValidationOptions opt;
  opt.verify.allow_static_proof = false;
  const RetimingValidation v =
      validate_retiming(n, g, min_period_retime_feas(g).lag, opt);
  EXPECT_TRUE(v.safety.every_move_certified());
  EXPECT_EQ(v.cls.decided_by, EquivalenceBackend::kExplicit);
  EXPECT_TRUE(v.cls.equivalent);
}

}  // namespace
}  // namespace rtv
