#include "core/verify.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "analysis/dataflow.hpp"
#include "util/bits.hpp"

namespace rtv {

namespace {

/// A proof by a static argument: no engine ran.
ClsEquivalenceResult static_result(std::string reason, ResourceBudget* budget) {
  ClsEquivalenceResult result;
  result.equivalent = result.exhaustive = true;
  result.verdict = Verdict::kProven;
  result.decided_by = EquivalenceBackend::kStatic;
  result.decided_reason = std::move(reason);
  if (budget != nullptr) result.usage = budget->usage();
  return result;
}

/// The static fast path: a whole-design proof from the ternary dataflow
/// fixpoint, attempted before any state-space engine. Returns nullopt when
/// the fixpoint cannot decide — which says nothing about the designs, so
/// the caller falls through to the selected backend.
std::optional<ClsEquivalenceResult> try_static_proof(const Netlist& a,
                                                     const Netlist& b,
                                                     ResourceBudget* budget) {
  // The fixpoint is cheap but not free: it answers to the same budget as
  // every engine, so a blown/cancelled budget skips straight to the
  // selected backend, which degrades honestly.
  if (budget != nullptr && !budget->checkpoint("verify/static")) {
    return std::nullopt;
  }
  const std::optional<std::string> proof = static_cls_equivalence_proof(a, b);
  if (!proof) return std::nullopt;
  return static_result(*proof, budget);
}

/// The certificate stage: sequence `a` by the lag recovered from `b` and
/// certify every move. The sequenced design has b's graph, edge for edge,
/// and designs with the same cells and weighted edges are CLS-identical
/// (latches start at X, whatever their names or sharing), so the
/// certificate carries over to `b`. nullopt says nothing about the designs.
std::optional<ClsEquivalenceResult> try_certificate(const Netlist& a,
                                                    const Netlist& b,
                                                    ResourceBudget* budget) {
  if (budget != nullptr && !budget->checkpoint("verify/certificate")) {
    return std::nullopt;
  }
  const auto zero = [](const std::vector<int>& lag) {
    return std::all_of(lag.begin(), lag.end(), [](int r) { return r == 0; });
  };
  RetimeGraph graph;
  const std::optional<std::vector<int>> lag = recover_lag(a, b, &graph);
  if (!lag) return std::nullopt;
  // A zero lag means every edge kept its weight: b's graph is a's already.
  if (zero(*lag)) return certificate_result(SafetyReport{}, budget);
  SequencedRetiming seq;
  const SafetyReport report =
      analyze_lag_retiming(a, graph, *lag, &seq, /*census=*/false);
  if (!report.every_move_certified()) return std::nullopt;
  const std::optional<std::vector<int>> rest = recover_lag(seq.retimed, b);
  RTV_CHECK_MSG(rest && zero(*rest),
                "the sequenced design's retiming graph differs from b's");
  return certificate_result(report, budget);
}

/// A found counterexample must actually distinguish the designs under the
/// concrete CLS simulators; anything else is an engine bug, surfaced as an
/// InternalError (never a degradation).
void validate_counterexample(const Netlist& a, const Netlist& b,
                             const ClsEquivalenceResult& result) {
  if (!result.counterexample) return;
  if (cls_outputs_match(a, b, *result.counterexample)) {
    throw InternalError(
        std::string("equivalence backend '") + to_string(result.decided_by) +
        "' returned a counterexample that does not distinguish the designs: " +
        sequence_to_string(*result.counterexample));
  }
}

/// A BDD or SAT outcome as a result stamped with the engine's backend.
template <typename Outcome>
ClsEquivalenceResult from_engine(const Outcome& outcome,
                                 ResourceBudget* budget) {
  ClsEquivalenceResult result;
  result.equivalent = outcome.equivalent;
  result.verdict = outcome.verdict;
  result.exhaustive = outcome.verdict == Verdict::kProven;
  result.counterexample = outcome.counterexample;
  result.decided_by = std::is_same_v<Outcome, BddClsOutcome>
                          ? EquivalenceBackend::kBdd
                          : EquivalenceBackend::kSat;
  result.decided_reason = outcome.note;
  if (budget != nullptr) result.usage = budget->usage();
  return result;
}

/// Limits for one portfolio phase: the caller's caps minus what the parent
/// budget and the phases before it (`spent_steps`) have already consumed.
/// Each phase gets its own budget object, so one exhausting its slice never
/// flips the caller's budget or a sibling's.
ResourceLimits slice_limits(ResourceBudget* parent,
                            std::uint64_t spent_steps = 0) {
  if (parent == nullptr) return ResourceLimits{};
  ResourceLimits limits = parent->limits();
  if (limits.time_budget_ms != 0) {
    const double remaining =
        static_cast<double>(limits.time_budget_ms) - parent->elapsed_ms();
    limits.time_budget_ms =
        remaining > 1.0 ? static_cast<std::uint64_t>(remaining) : 1;
  }
  if (limits.step_quota != 0) {
    const std::uint64_t used = parent->usage().steps + spent_steps;
    limits.step_quota = used < limits.step_quota ? limits.step_quota - used : 1;
  }
  return limits;
}

/// The portfolio's explicit stage runs its pair BFS only on designs of at
/// most this many inputs (3^6 = 729 input vectors per state pair)...
constexpr unsigned kStageMaxInputs = 6;
/// ...and gives up after min(kStageMaxPairs, kStageSuccessors / 3^inputs)
/// state pairs: about 2^17 (pair, input) successors, or 1-3 ms of packed
/// BFS, and never more than 4096 pairs, so a one-input design with a large
/// pair space (shift_register(12)) hands over to the race within 2 ms.
constexpr std::size_t kStageMaxPairs = 4096;
constexpr std::uint64_t kStageSuccessors = std::uint64_t{1} << 17;
/// Every pair the BFS has not decided is then sampled once, refute-only:
/// one word of 64 random ternary sequences over 16 cycles, well under a
/// millisecond where the race pays two thread spawns and a CNF build
/// before SAT's BMC finds the same shallow difference.
constexpr unsigned kStageSequences = 64;
constexpr unsigned kStageCycles = 16;

/// The explicit stage, run on the calling thread before any engine thread
/// is spawned: the packed pair BFS (core/cls_equiv.hpp) on narrow designs,
/// within the allowance above, then the bounded sampler on whatever the
/// BFS left open. Narrow retimed pairs close in about a millisecond, where
/// SAT's k-induction takes tens, and a sampled difference refutes a pair
/// outright: the counterexample is definitive. Returns nullopt when
/// neither concludes, reporting what it spent in `spent` so the race can
/// run on the rest of the budget. Each run's budget shares the caller's
/// cancellation token and deadline but is its own object, so running out
/// of allowance never marks the caller exhausted, and a trip never decides.
std::optional<ClsEquivalenceResult> try_explicit_stage(
    const Netlist& a, const Netlist& b, const VerifyOptions& options,
    ResourceBudget* budget, ResourceUsage* spent) {
  const auto run = [&](const ClsEquivOptions& opts, ResourceLimits limits) {
    ResourceBudget stage = ResourceBudget::with_deadline(
        limits,
        budget != nullptr ? budget->cancel_token() : CancellationToken{},
        budget != nullptr ? budget->deadline() : std::nullopt);
    ClsEquivalenceResult result = check_cls_equivalence(a, b, opts, &stage);
    const ResourceUsage used = stage.usage();
    spent->wall_ms += used.wall_ms;
    spent->steps += used.steps;
    spent->state_pairs = std::max(spent->state_pairs, used.state_pairs);
    return result;
  };
  std::optional<ClsEquivalenceResult> decided;
  const unsigned width = static_cast<unsigned>(a.primary_inputs().size());
  if (width <= kStageMaxInputs &&
      pair_bfs_applies(a, b, options.explicit_opts)) {
    ResourceLimits limits = slice_limits(budget);
    const std::size_t allowance =
        std::min<std::size_t>(kStageMaxPairs, kStageSuccessors / pow3(width));
    limits.pair_limit = limits.pair_limit == 0
                            ? allowance
                            : std::min(limits.pair_limit, allowance);
    ClsEquivalenceResult bfs = run(options.explicit_opts, limits);
    if (bfs.verdict == Verdict::kProven) decided = std::move(bfs);
  }
  if (!decided) {
    ClsEquivOptions sampling = options.explicit_opts;
    sampling.max_branching = 0;  // no pair BFS: sample from the start
    sampling.random_sequences = kStageSequences;
    sampling.random_length = kStageCycles;
    ClsEquivalenceResult sampled =
        run(sampling, slice_limits(budget, spent->steps));
    if (!sampled.counterexample) return std::nullopt;
    sampled.verdict = Verdict::kProven;
    sampled.exhaustive = true;
    decided = std::move(sampled);
  }
  decided->decided_reason =
      "portfolio: explicit stage: " + decided->decided_reason;
  decided->usage.wall_ms = spent->wall_ms;
  decided->usage.steps = spent->steps;
  decided->usage.state_pairs = spent->state_pairs;
  if (budget != nullptr) {
    const ResourceUsage parent = budget->usage();
    decided->usage.wall_ms = parent.wall_ms;
    decided->usage.steps += parent.steps;
    decided->usage.peak_bdd_nodes = parent.peak_bdd_nodes;
  }
  return decided;
}

ClsEquivalenceResult run_portfolio(const Netlist& a, const Netlist& b,
                                   const VerifyOptions& options,
                                   ResourceBudget* budget,
                                   const ResourceUsage& stage) {
  CancellationToken bdd_cancel, sat_cancel;
  ResourceLimits bdd_limits = slice_limits(budget, stage.steps);
  bdd_limits.bdd_node_limit = options.bdd.node_limit < bdd_limits.bdd_node_limit
                                  ? options.bdd.node_limit
                                  : bdd_limits.bdd_node_limit;
  ResourceBudget bdd_budget(bdd_limits, bdd_cancel);
  ResourceBudget sat_budget(slice_limits(budget, stage.steps), sat_cancel);
  if (budget != nullptr && !budget->checkpoint("portfolio/start")) {
    // The caller's budget is already gone (cancelled, past its deadline):
    // both engines stop at their first checkpoint, and the report says so.
    bdd_cancel.request_cancel();
    sat_cancel.request_cancel();
  }

  std::mutex mutex;
  std::condition_variable cv;
  bool done[2] = {false, false};
  int first_conclusive = -1;  // 0 = bdd, 1 = sat
  BddClsOutcome bdd_outcome;
  SatClsOutcome sat_outcome;
  std::exception_ptr errors[2];

  const auto finish_engine = [&](int which, bool conclusive) {
    std::lock_guard<std::mutex> lock(mutex);
    done[which] = true;
    if (conclusive && first_conclusive < 0) {
      first_conclusive = which;
      // The race is decided: stop the sibling.
      (which == 0 ? sat_cancel : bdd_cancel).request_cancel();
    }
    cv.notify_all();
  };

  std::thread bdd_thread([&] {
    bool conclusive = false;
    try {
      bdd_outcome = bdd_cls_equivalence(a, b, options.bdd, &bdd_budget);
      conclusive = bdd_outcome.verdict == Verdict::kProven;
    } catch (...) {
      errors[0] = std::current_exception();
    }
    finish_engine(0, conclusive);
  });
  std::thread sat_thread([&] {
    bool conclusive = false;
    try {
      sat_outcome = sat_cls_equivalence(a, b, options.sat, &sat_budget);
      conclusive = sat_outcome.verdict == Verdict::kProven;
    } catch (...) {
      errors[1] = std::current_exception();
    }
    finish_engine(1, conclusive);
  });

  {
    // Babysit the race: relay a blown parent budget (deadline, cancellation,
    // injected fault) to both engines so the portfolio honours its caller's
    // caps even while both engines are mid-flight.
    std::unique_lock<std::mutex> lock(mutex);
    bool parent_blown = false;
    while (!(done[0] && done[1])) {
      cv.wait_for(lock, std::chrono::milliseconds(10));
      if (!parent_blown && budget != nullptr &&
          !budget->checkpoint("portfolio/wait")) {
        parent_blown = true;
        bdd_cancel.request_cancel();
        sat_cancel.request_cancel();
      }
    }
  }
  bdd_thread.join();
  sat_thread.join();

  if (errors[0]) std::rethrow_exception(errors[0]);
  if (errors[1]) std::rethrow_exception(errors[1]);

  const bool bdd_conclusive = bdd_outcome.verdict == Verdict::kProven;
  const bool sat_conclusive = sat_outcome.verdict == Verdict::kProven;

  if (bdd_conclusive && sat_conclusive &&
      bdd_outcome.equivalent != sat_outcome.equivalent) {
    std::ostringstream os;
    os << "portfolio cross-check failed: BDD and SAT backends disagree on a "
          "conclusive verdict (bdd: "
       << (bdd_outcome.equivalent ? "equivalent" : "distinguishable") << " — "
       << bdd_outcome.note << "; sat: "
       << (sat_outcome.equivalent ? "equivalent" : "distinguishable") << " — "
       << sat_outcome.note << ")";
    throw BackendDisagreement(os.str());
  }

  // Merged usage across the stage and both slices (the engines ran
  // concurrently, after the stage, so the wall clock is the stage's plus
  // the longer engine's).
  const ResourceUsage bdd_usage = bdd_budget.usage();
  const ResourceUsage sat_usage = sat_budget.usage();
  ResourceUsage merged;
  merged.wall_ms =
      stage.wall_ms + std::max(bdd_usage.wall_ms, sat_usage.wall_ms);
  merged.steps = stage.steps + bdd_usage.steps + sat_usage.steps;
  merged.state_pairs = stage.state_pairs;
  merged.peak_bdd_nodes =
      std::max(bdd_usage.peak_bdd_nodes, sat_usage.peak_bdd_nodes);
  merged.bdd_gc_runs = bdd_usage.bdd_gc_runs + sat_usage.bdd_gc_runs;
  merged.bdd_nodes_reclaimed =
      bdd_usage.bdd_nodes_reclaimed + sat_usage.bdd_nodes_reclaimed;
  merged.bdd_reorder_runs =
      bdd_usage.bdd_reorder_runs + sat_usage.bdd_reorder_runs;
  merged.peak_live_bdd_nodes =
      std::max(bdd_usage.peak_live_bdd_nodes, sat_usage.peak_live_bdd_nodes);

  ClsEquivalenceResult result;
  if (bdd_conclusive || sat_conclusive) {
    const int winner =
        first_conclusive >= 0 ? first_conclusive : (bdd_conclusive ? 0 : 1);
    result = winner == 0 ? from_engine(bdd_outcome, nullptr)
                         : from_engine(sat_outcome, nullptr);
    result.decided_reason = "portfolio: " + result.decided_reason +
                            (bdd_conclusive && sat_conclusive
                                 ? " [cross-checked: engines agree]"
                                 : "");
  } else if (sat_outcome.verdict == Verdict::kBounded) {
    result = from_engine(sat_outcome, nullptr);
    result.decided_reason = "portfolio: no engine concluded; best evidence "
                            "from sat (" +
                            sat_outcome.note + ")";
  } else if (bdd_outcome.verdict == Verdict::kBounded) {
    result = from_engine(bdd_outcome, nullptr);
    result.decided_reason = "portfolio: no engine concluded; best evidence "
                            "from bdd (" +
                            bdd_outcome.note + ")";
  } else {
    result = from_engine(sat_outcome, nullptr);
    result.decided_reason = "portfolio: both engines exhausted (bdd: " +
                            bdd_outcome.note + "; sat: " + sat_outcome.note +
                            ")";
    merged.exhausted = true;
    merged.blown = sat_usage.blown ? sat_usage.blown : bdd_usage.blown;
  }
  if (budget != nullptr) {
    // The caller's budget metered only the babysitting loop; the engines'
    // work ran on their own slices and belongs in the report too.
    const ResourceUsage parent = budget->usage();
    merged.wall_ms = parent.wall_ms;
    merged.steps += parent.steps;
    merged.state_pairs = std::max(merged.state_pairs, parent.state_pairs);
    merged.peak_bdd_nodes =
        std::max(merged.peak_bdd_nodes, parent.peak_bdd_nodes);
    if (parent.exhausted) {
      merged.exhausted = true;
      merged.blown = parent.blown;
    }
  }
  result.usage = merged;
  return result;
}

ClsEquivalenceResult verify(const Netlist& a, const Netlist& b,
                            const VerifyOptions& options,
                            ResourceBudget* budget, bool certificate_stage) {
  RTV_REQUIRE(a.primary_inputs().size() == b.primary_inputs().size(),
              "designs differ in primary input count");
  RTV_REQUIRE(a.primary_outputs().size() == b.primary_outputs().size(),
              "designs differ in primary output count");

  // Static fast path: a fixpoint proof, then a per-move certificate, need
  // no state-space search, so they short-circuit before any backend is even
  // constructed. Neither can disprove, so an inconclusive attempt falls
  // through; only the explicit kStatic backend reports it (honestly, as
  // kExhausted — "could not decide", never a fake verdict).
  if (options.allow_static_proof ||
      options.backend == EquivalenceBackend::kStatic) {
    std::optional<ClsEquivalenceResult> proof = try_static_proof(a, b, budget);
    if (!proof && certificate_stage) proof = try_certificate(a, b, budget);
    if (proof) return *proof;
    if (options.backend == EquivalenceBackend::kStatic) {
      // kExhausted contract: `equivalent` means "no difference observed".
      ClsEquivalenceResult result = static_result(
          "static proof inconclusive: some paired primary output has a "
          "non-singleton or differing value set, and no per-move "
          "certificate covers the pair (select an engine backend to decide)",
          budget);
      result.exhaustive = false;
      result.verdict = Verdict::kExhausted;
      return result;
    }
  }

  ClsEquivalenceResult result;
  switch (options.backend) {
    case EquivalenceBackend::kExplicit:
      result = check_cls_equivalence(a, b, options.explicit_opts, budget);
      break;
    case EquivalenceBackend::kBdd:
      result =
          from_engine(bdd_cls_equivalence(a, b, options.bdd, budget), budget);
      break;
    case EquivalenceBackend::kSat:
      result =
          from_engine(sat_cls_equivalence(a, b, options.sat, budget), budget);
      break;
    case EquivalenceBackend::kPortfolio: {
      ResourceUsage stage;
      if (std::optional<ClsEquivalenceResult> staged =
              try_explicit_stage(a, b, options, budget, &stage)) {
        result = std::move(*staged);
      } else {
        result = run_portfolio(a, b, options, budget, stage);
      }
      break;
    }
    case EquivalenceBackend::kStatic:
      break;  // handled above; unreachable
  }
  validate_counterexample(a, b, result);
  return result;
}

}  // namespace

ClsEquivalenceResult verify_cls_equivalence(const Netlist& a, const Netlist& b,
                                            const VerifyOptions& options,
                                            ResourceBudget* budget) {
  return verify(a, b, options, budget, /*certificate_stage=*/true);
}

ClsEquivalenceResult verify_cls_equivalence_after_certificate(
    const Netlist& a, const Netlist& b, const VerifyOptions& options,
    ResourceBudget* budget) {
  return verify(a, b, options, budget, /*certificate_stage=*/false);
}

ClsEquivalenceResult certificate_result(const SafetyReport& report,
                                        ResourceBudget* budget) {
  return static_result("per-move certificate: " + report.certificate_census(),
                       budget);
}

}  // namespace rtv
