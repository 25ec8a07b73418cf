// Fault-injection sweep (util/fault_inject.hpp): arm the harness to trip
// budget exhaustion at the N-th checkpoint, for every N reachable in a full
// validate + cls-equiv + flow + faultsim workload, and assert a well-formed,
// honestly labeled partial report at every single trip point. Run under
// ASan/UBSan in CI, this is the executable proof that no exhaustion path
// crashes, leaks, or masquerades as a proof.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/flow.hpp"
#include "core/validator.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "test_helpers.hpp"
#include "util/budget.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

using testing::inverter_pipeline;
using testing::toggle_circuit;

/// Every governed entry point in one deterministic workload. Small CLS
/// options keep a single run fast enough to repeat once per checkpoint.
struct WorkloadReport {
  RetimingValidation validation;
  ClsEquivalenceResult equiv;
  FlowReport flow;
  FaultSimResult faultsim;
  std::size_t faultsim_faults = 0;
  /// BDD reclamation under budget: did a trip mid-collection or mid-sift
  /// leave the table sound and protected roots semantically intact?
  bool bdd_exhausted = false;
  bool bdd_invariants_ok = false;
  bool bdd_kept_ok = false;
  BddManager::EngineStats bdd_stats;
};

WorkloadReport run_workload() {
  WorkloadReport w;

  // validate: a real min-area retiming of the two-latch pipeline, with the
  // exact STG phase in range.
  {
    const Netlist n = inverter_pipeline();
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    ValidationOptions opt;
    opt.verify.explicit_opts.random_sequences = 4;
    opt.verify.explicit_opts.random_length = 4;
    w.validation = validate_retiming(n, g, min_area_retime(g).lag, opt);
  }

  // cls-equiv: the same pair with no plan given, which the certificate
  // stage of verify_cls_equivalence decides from the recovered lag.
  {
    ResourceBudget budget;  // unlimited, but still drives fault injection
    w.equiv = verify_cls_equivalence(inverter_pipeline(), w.validation.retimed,
                                     VerifyOptions{}, &budget);
  }

  // flow: cleanup + retiming + redundancy removal + the CLS gate.
  {
    FlowOptions opt;
    opt.redundancy_removal = true;
    opt.verify.explicit_opts.random_sequences = 4;
    opt.verify.explicit_opts.random_length = 4;
    w.flow = run_synthesis_flow(toggle_circuit(), opt);
  }

  // faultsim: exact mode, single worker so the checkpoint schedule is
  // deterministic and the sweep hits the same trip points every run.
  {
    const Netlist n = toggle_circuit();
    const std::vector<Fault> faults = collapse_faults(n);
    w.faultsim_faults = faults.size();
    std::vector<BitsSeq> tests;
    Rng rng(11);
    for (int s = 0; s < 4; ++s) {
      BitsSeq seq;
      for (int t = 0; t < 4; ++t) {
        seq.push_back(Bits{static_cast<std::uint8_t>(rng.coin())});
      }
      tests.push_back(seq);
    }
    FaultSimOptions opt;
    opt.mode = FaultSimMode::kExact;
    opt.threads = 1;
    w.faultsim = fault_simulate(n, faults, tests, opt);
  }

  // bdd: reclamation + sifting under budget. Cube churn with a small arena
  // crosses the automatic GC and reorder triggers; the explicit calls at
  // the end pin the "bdd/gc" and "bdd/reorder" sites into the census even
  // when a trip cuts the churn short. Whatever happens, the unique table
  // must stay structurally sound and the protected round-0 function must
  // keep its denotation — a budget trip at a collection or sift boundary
  // is allowed to abandon work, never to corrupt survivors.
  {
    constexpr unsigned kVars = 14;
    ResourceBudget budget;  // unlimited, but still drives fault injection
    BddManager m(kVars, /*node_limit=*/std::size_t{1} << 14);
    m.set_budget(&budget);
    m.set_gc_enabled(true);
    ReorderOptions ro;
    ro.mode = ReorderMode::kOnPressure;
    ro.trigger_nodes = 1024;
    m.set_reorder_options(ro);
    Rng rng(23);
    BddHandle kept;
    std::vector<std::vector<bool>> samples;
    std::vector<bool> expected;
    try {
      for (int round = 0; round < 10; ++round) {
        BddHandle f = m.protect(BddManager::kFalse);
        for (int c = 0; c < 12; ++c) {
          BddHandle cube = m.protect(BddManager::kTrue);
          for (int j = 0; j < 6; ++j) {
            const unsigned v = static_cast<unsigned>(rng.index(kVars));
            const BddManager::Ref lit = rng.coin() ? m.var(v) : m.nvar(v);
            cube.reset(&m, m.bdd_and(lit, cube.get()));
          }
          f.reset(&m, m.bdd_or(f.get(), cube.get()));
        }
        if (round == 0) {
          kept = f;
          for (int s = 0; s < 32; ++s) {
            std::vector<bool> assignment(kVars);
            for (unsigned v = 0; v < kVars; ++v) assignment[v] = rng.coin();
            expected.push_back(m.evaluate(kept.get(), assignment));
            samples.push_back(std::move(assignment));
          }
        }
      }
      m.collect_garbage();
      m.reorder();
    } catch (const ResourceExhausted&) {
      w.bdd_exhausted = true;
    }
    w.bdd_stats = m.stats();
    w.bdd_invariants_ok = true;
    try {
      m.check_invariants();
    } catch (const InternalError&) {
      w.bdd_invariants_ok = false;
    }
    w.bdd_kept_ok = true;
    for (std::size_t s = 0; s < samples.size(); ++s) {
      if (m.evaluate(kept.get(), samples[s]) != expected[s]) {
        w.bdd_kept_ok = false;
      }
    }
  }
  return w;
}

/// The well-formedness contract every (possibly degraded) report must obey.
void expect_well_formed(const WorkloadReport& w, std::uint64_t trip_point) {
  SCOPED_TRACE("injection at checkpoint " + std::to_string(trip_point));

  // -- validation ------------------------------------------------------
  const RetimingValidation& v = w.validation;
  // Exhaustion anywhere must label the whole validation; a degraded run
  // must never report the top verdict as proven.
  if (v.usage.exhausted) {
    EXPECT_EQ(v.verdict, Verdict::kExhausted);
  } else {
    EXPECT_NE(v.verdict, Verdict::kExhausted);
  }
  // The CLS sub-result's own ladder: exhaustive iff proven; an exhausted
  // partial report never claims inequivalence or carries a counterexample.
  EXPECT_EQ(v.cls.exhaustive, v.cls.verdict == Verdict::kProven);
  if (v.cls.verdict == Verdict::kExhausted) {
    EXPECT_TRUE(v.cls.equivalent);
    EXPECT_FALSE(v.cls.counterexample.has_value());
  }
  // These designs are genuine retimings: a counterexample would be a bug
  // (or corruption on an exhaustion path), not a legitimate finding.
  EXPECT_TRUE(v.cls.equivalent);
  EXPECT_TRUE(v.theorems_hold);
  // The STG phase commits atomically: checked and budget-exhausted are
  // mutually exclusive, and exact flags are only set when checked.
  EXPECT_FALSE(v.stg_checked && v.stg_budget_exhausted);
  if (v.stg_budget_exhausted) {
    EXPECT_EQ(v.verdict, Verdict::kExhausted);
  }
  // (When stg_checked, theorems_hold above already cross-checks the exact
  // relations against the static bounds — C ⊑ D itself need not hold for a
  // genuine retiming, only C^n ⊑ D within the delay bound.)
  // The summary must render whatever the degradation state.
  const std::string vs = v.summary();
  EXPECT_NE(vs.find("verdict:"), std::string::npos);
  if (v.verdict == Verdict::kExhausted) {
    EXPECT_NE(vs.find("exhausted"), std::string::npos);
    EXPECT_EQ(vs.find("verdict:  proven"), std::string::npos);
  }

  // -- cls-equiv -------------------------------------------------------
  // A trip anywhere, the certificate stage included, never yields proven.
  const ClsEquivalenceResult& e = w.equiv;
  EXPECT_TRUE(e.equivalent);
  EXPECT_EQ(e.exhaustive, e.verdict == Verdict::kProven);
  if (e.usage.exhausted) {
    EXPECT_EQ(e.verdict, Verdict::kExhausted);
  }

  // -- flow ------------------------------------------------------------
  const FlowReport& f = w.flow;
  if (f.usage.exhausted) {
    EXPECT_EQ(f.verdict, Verdict::kExhausted);
    EXPECT_FALSE(f.accepted());
  }
  EXPECT_EQ(f.cls.exhaustive, f.cls.verdict == Verdict::kProven);
  const std::string fs = f.summary();
  if (f.verdict == Verdict::kExhausted) {
    EXPECT_NE(fs.find("UNDECIDED"), std::string::npos);
    EXPECT_EQ(fs.find("ACCEPTED"), std::string::npos);
  } else {
    EXPECT_TRUE(f.accepted());
    EXPECT_NE(fs.find("ACCEPTED"), std::string::npos);
  }
  // The flow's output design must be structurally sound even when the
  // pipeline was cut short anywhere.
  EXPECT_NO_THROW(f.optimized.check_valid(true));

  // -- faultsim --------------------------------------------------------
  const FaultSimResult& r = w.faultsim;
  EXPECT_EQ(r.complete, r.faults_skipped == 0);
  EXPECT_EQ(r.detected.size(), w.faultsim_faults);
  EXPECT_EQ(r.detecting_test.size(), w.faultsim_faults);
  EXPECT_LE(r.num_detected + r.faults_skipped, w.faultsim_faults);
  if (!r.complete) {
    EXPECT_TRUE(r.usage.exhausted);
  }
  // Every published detection must carry a witness test index.
  std::size_t detected = 0;
  for (std::size_t i = 0; i < r.detected.size(); ++i) {
    if (r.detected[i]) {
      ++detected;
      EXPECT_GE(r.detecting_test[i], 0);
    } else {
      EXPECT_EQ(r.detecting_test[i], -1);
    }
  }
  EXPECT_EQ(detected, r.num_detected);

  // -- bdd -------------------------------------------------------------
  // A trip at a "bdd/gc" or "bdd/reorder" (or "bdd/alloc") checkpoint may
  // abandon the collection or sift, but never at the price of table
  // integrity or a protected root's semantics.
  EXPECT_TRUE(w.bdd_invariants_ok)
      << "budget trip corrupted the BDD unique table";
  EXPECT_TRUE(w.bdd_kept_ok)
      << "budget trip changed a protected function's denotation";
}

TEST(FaultInjectSweep, CensusCoversTheRequiredInjectionSurface) {
  // Arm far beyond reach so nothing trips; the harness then just counts.
  fault_inject::arm(std::uint64_t{1} << 62);
  const WorkloadReport w = run_workload();
  const std::uint64_t total = fault_inject::checkpoints_passed();
  const std::vector<std::string> sites = fault_inject::sites_seen();
  fault_inject::disarm();

  // Untripped, the workload must succeed outright — and the BDD phase must
  // have actually collected and sifted, or the sweep would never exercise
  // the maintenance checkpoints it exists to trip.
  EXPECT_EQ(w.validation.verdict, Verdict::kProven);
  EXPECT_EQ(w.equiv.verdict, Verdict::kProven);
  EXPECT_EQ(w.equiv.decided_by, EquivalenceBackend::kStatic);
  EXPECT_TRUE(w.flow.accepted());
  EXPECT_TRUE(w.faultsim.complete);
  EXPECT_FALSE(w.bdd_exhausted);
  EXPECT_GE(w.bdd_stats.gc_runs, 1u);
  EXPECT_GE(w.bdd_stats.reorder_runs, 1u);

  // The acceptance bar: the full run exposes at least 30 injection points,
  // across several distinct subsystems.
  EXPECT_GE(total, 30u);
  EXPECT_GE(sites.size(), 8u);
  std::size_t cls_sites = 0, stg_sites = 0, flow_sites = 0, fault_sites = 0;
  bool saw_bdd_gc = false, saw_bdd_reorder = false, saw_certificate = false,
       saw_verify_certificate = false;
  for (const std::string& s : sites) {
    cls_sites += s.rfind("cls/", 0) == 0;
    stg_sites += s.rfind("stg/", 0) == 0;
    flow_sites += s.rfind("flow/", 0) == 0;
    fault_sites += s.rfind("fault/", 0) == 0;
    saw_bdd_gc |= s == "bdd/gc";
    saw_bdd_reorder |= s == "bdd/reorder";
    saw_certificate |= s == "validate/certificate";
    saw_verify_certificate |= s == "verify/certificate";
  }
  EXPECT_GT(cls_sites, 0u) << "no CLS checkpoints seen";
  EXPECT_GT(stg_sites, 0u) << "no STG checkpoints seen";
  EXPECT_GT(flow_sites, 0u) << "no flow checkpoints seen";
  EXPECT_GT(fault_sites, 0u) << "no fault-engine checkpoints seen";
  EXPECT_TRUE(saw_bdd_gc) << "no BDD collection checkpoint seen";
  EXPECT_TRUE(saw_bdd_reorder) << "no BDD sifting checkpoint seen";
  // validate's certificate stage is tripped too, so the sweep proves an
  // exhaustion there never yields a proven verdict.
  EXPECT_TRUE(saw_certificate) << "no certificate checkpoint seen";
  EXPECT_TRUE(saw_verify_certificate)
      << "no cls-equiv certificate checkpoint seen";
}

TEST(FaultInjectSweep, EveryInjectionPointDegradesGracefully) {
  // Census pass: how many checkpoints does one full workload hit?
  fault_inject::arm(std::uint64_t{1} << 62);
  run_workload();
  const std::uint64_t total = fault_inject::checkpoints_passed();
  ASSERT_GE(total, 30u);

  // The sweep proper: trip every single checkpoint once. Each run is a
  // fresh process state as far as budgets are concerned (every entry point
  // owns its budget), so trips cannot leak across iterations.
  for (std::uint64_t n = 1; n <= total; ++n) {
    fault_inject::arm(n);
    const WorkloadReport w = run_workload();
    expect_well_formed(w, n);
    if (HasFatalFailure()) break;
  }
  fault_inject::disarm();
}

}  // namespace
}  // namespace rtv
