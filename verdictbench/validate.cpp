// Workload `validate`: the one-shot `rtv validate` product at its shipped
// defaults. Closed loop, one caller. Each query makes exactly the calls
// `rtv validate` makes: read_rnl -> RetimeGraph::from_netlist ->
// min_area_retime | min_period_retime_feas -> validate_retiming, with
// ValidationOptions{} plus a fixed per-query wall-clock limit.

#include <stdexcept>

#include "analysis/dataflow.hpp"
#include "bench.hpp"
#include "core/validator.hpp"
#include "io/rnl_format.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/sequencer.hpp"
#include "stg/stg.hpp"

namespace vb {

using namespace rtv;

namespace {

/// Per-query limit. Every decided query of the corpus finishes in under
/// half of it; the undecided ones (pipelined_adder(4,2), controller_datapath)
/// run into it, so verdict counts repeat exactly.
constexpr std::uint64_t kLimitMs = 200;

struct Counters {
  double bytes_parsed = 0;
  double moves = 0;
  double explicit_pairs = 0;
  double static_attempts = 0, static_proofs = 0;
  double dataflow_updates = 0;
  double stg_checked = 0;
  std::uint64_t queries = 0;
};

struct Outcome {
  double ms = 0;
  bool proven = false;
};

/// The timed chain. Spans (when tracing) cover each public call.
Outcome run_query(const Design& design, const ValidateQuery& q, Tracer& tr, int qid,
                  Tally& tally, Counters* counters) {
  Outcome out;
  ++tally.attempted;
  const auto t0 = Clock::now();
  try {
    Scope root(tr, "validate.query", qid);
    Netlist n;
    {
      Scope s(tr, "io.parse", qid, root.id());
      n = read_rnl(design.text);
    }
    std::optional<RetimeGraph> g;
    {
      Scope s(tr, "retime.graph", qid, root.id());
      g.emplace(RetimeGraph::from_netlist(n));
    }
    std::vector<int> lag;
    {
      Scope s(tr, "retime.solve", qid, root.id());
      lag = q.objective == Objective::kMinArea ? min_area_retime(*g).lag
                                               : min_period_retime_feas(*g).lag;
    }
    ValidationOptions opt;
    opt.budget.time_budget_ms = kLimitMs;
    std::optional<RetimingValidation> v;
    {
      Scope s(tr, "core.validate", qid, root.id());
      v.emplace(validate_retiming(n, *g, lag, opt));
    }
    out.ms = ms_since(t0);
    out.proven = v->verdict == Verdict::kProven;
    if (v->verdict == Verdict::kExhausted) out.ms = static_cast<double>(kLimitMs);

    // Checks against the known answer (outside the timed window).
    if (v->cls.counterexample && !distinguishes(n, v->retimed, *v->cls.counterexample)) {
      tally.check_failure(q.name, "counterexample does not replay on ClsSimulator");
    }
    if (q.premise && !v->cls.equivalent && v->cls.counterexample) {
      tally.check_failure(q.name, "refuted a pair that meets Cor 5.3's premise");
    }
    if (!v->theorems_hold) tally.check_failure(q.name, "theorems_hold is false");
    if (counters != nullptr) counters->stg_checked += v->stg_checked ? 1 : 0;
  } catch (const InternalError& e) {
    out = Outcome{static_cast<double>(kLimitMs), false};
    tally.product_failure(q.name);
  } catch (const std::exception& e) {
    out = Outcome{static_cast<double>(kLimitMs), false};
    tally.check_failure(q.name, std::string("unexpected error: ") + e.what());
  }
  if (out.proven) ++tally.proven;
  return out;
}

/// Traced run only: replays the calls validate_retiming makes, one span
/// each, so the core/stg/analysis split is measured where the work happens.
void replay_internals(const Design& design, const ValidateQuery& q, Tracer& tr, int qid,
                      Counters& c) {
  Scope root(tr, "validate.replay", qid);
  const Netlist n = read_rnl(design.text);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const std::vector<int> lag = q.objective == Objective::kMinArea
                                   ? min_area_retime(g).lag
                                   : min_period_retime_feas(g).lag;
  {
    Scope s(tr, "retime.sequence", qid, root.id());
    c.moves += static_cast<double>(sequence_retiming(n, g, lag).moves.size());
  }
  SequencedRetiming seq;
  {
    Scope s(tr, "core.safety", qid, root.id());
    analyze_lag_retiming(n, g, lag, &seq);
  }
  const Netlist& r = seq.retimed;
  c.dataflow_updates += static_cast<double>(run_dataflow(n).stats().updates);
  ResourceLimits limits;
  limits.time_budget_ms = kLimitMs;
  ResourceBudget budget(limits);
  std::optional<std::string> proof;
  {
    Scope s(tr, "analysis.static_proof", qid, root.id());
    proof = static_cls_equivalence_proof(n, r);
  }
  ++c.static_attempts;
  if (proof) {
    ++c.static_proofs;
  } else {
    Scope s(tr, "core.explicit", qid, root.id());
    VerifyOptions vo;
    vo.allow_static_proof = false;
    try {
      c.explicit_pairs += static_cast<double>(
          verify_cls_equivalence(n, r, vo, &budget).pairs_explored);
    } catch (const InternalError&) {
      // Counted by the timed chain; the replay only measures.
    }
  }
  const ValidationOptions caps;
  const auto fits = [&](const Netlist& x) {
    return x.latches().size() <= caps.max_stg_latches &&
           x.primary_inputs().size() <= caps.max_stg_inputs;
  };
  if (!fits(n) || !fits(r) || budget.exhausted()) return;
  try {
    std::optional<Stg> d, cc;
    {
      Scope s(tr, "stg.extract", qid, root.id());
      d.emplace(Stg::extract(n, kDefaultStgEntryCap, &budget));
      cc.emplace(Stg::extract(r, kDefaultStgEntryCap, &budget));
    }
    {
      Scope s(tr, "stg.implies", qid, root.id());
      implies(*cc, *d, &budget);
    }
    {
      Scope s(tr, "stg.safe_replacement", qid, root.id());
      safe_replacement(*cc, *d, &budget);
    }
    {
      Scope s(tr, "stg.min_delay", qid, root.id());
      min_delay_for_implication(*cc, *d, caps.max_delay_search, &budget);
    }
  } catch (const ResourceExhausted&) {
  }
}

}  // namespace

RunResult run_validate(const RunConfig& config) {
  RunResult out;
  struct Setup {
    Corpus corpus;
    std::vector<ValidateQuery> queries;
  };
  double setup_s = 0;
  Setup setup = timed_setup(11, &setup_s, [] {
    Setup s;
    s.corpus = build_corpus();
    s.queries = validate_queries(s.corpus);
    return s;
  });
  shuffle(setup.queries, config.seed);
  if (config.plant_wrong_answer) {
    // Claim Cor 5.3's premise for a query that does not meet it.
    for (ValidateQuery& q : setup.queries) {
      if (setup.corpus.designs[q.design].name == "mult4_1" &&
          q.objective == Objective::kMinArea) {
        q.premise = true;
      }
    }
  }
  out.notes.push_back("validate corpus: " + std::to_string(setup.queries.size()) +
                      " queries over " + std::to_string(setup.corpus.designs.size()) +
                      " designs, per-query limit " + std::to_string(kLimitMs) + " ms");
  for (const Design& d : setup.corpus.designs) out.notes.push_back("  " + d.name + ": " + d.why);

  Tracer off(false);
  {
    // Warm-up: one untimed pass over the fast half of the order.
    Tally warm;
    for (std::size_t i = 0; i < setup.queries.size() / 2; ++i) {
      const ValidateQuery& q = setup.queries[i];
      run_query(setup.corpus.designs[q.design], q, off, -1, warm, nullptr);
    }
  }

  Tracer tr(config.trace);
  Tally tally;
  Counters counters;
  QueryLatencies untraced_ms, traced_ms;
  double untraced_elapsed_ms = 0;
  const auto start = Clock::now();
  int qid = 0;
  // Whole passes, so every run holds the same multiset of queries.
  for (int pass = 0;; ++pass) {
    const bool traced_pass = config.trace && pass % 2 == 1;
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < setup.queries.size(); ++i) {
      const ValidateQuery& q = setup.queries[i];
      const Design& d = setup.corpus.designs[q.design];
      if (traced_pass) {
        Tally scratch;
        traced_ms.add(i, run_query(d, q, tr, qid, scratch, &counters).ms);
        ++counters.queries;
        counters.bytes_parsed += static_cast<double>(d.text.size());
        replay_internals(d, q, tr, qid, counters);
        ++qid;
      } else {
        untraced_ms.add(i, run_query(d, q, off, -1, tally, nullptr).ms);
      }
    }
    if (!traced_pass) untraced_elapsed_ms += ms_since(pass_start);
    const bool enough = ms_since(start) >= config.seconds * 1000.0 && untraced_ms.samples() >= 100;
    if (enough && (!config.trace || traced_ms.samples() > 0)) break;
  }

  tally.report(out);
  const double p50 = untraced_ms.percentile(0.5), p90 = untraced_ms.percentile(0.9);
  const double n = static_cast<double>(untraced_ms.samples());
  put(out, "verdict_ms_p50", p50, "ms");
  put(out, "verdict_ms_p90", p90, "ms");
  put(out, "queries_per_s", n / (untraced_elapsed_ms / 1000.0), "1/s");
  put(out, "decided_share", static_cast<double>(tally.proven) / n, "share");
  put(out, "answered_share", 1.0 - static_cast<double>(tally.product_failures) / n, "share");
  // One caller and no queue: the service-face latencies of this closed
  // loop are its verdict latencies, and its goodput is proven verdicts/s.
  put(out, "serve_ms_p50_low", p50, "ms");
  put(out, "serve_ms_p90_low", p90, "ms");
  put(out, "serve_ms_p50_high", p50, "ms");
  put(out, "serve_ms_p90_high", p90, "ms");
  put(out, "goodput_per_s_high", static_cast<double>(tally.proven) / (untraced_elapsed_ms / 1000.0),
      "1/s");
  put(out, "setup_s", setup_s, "s");
  put(out, "peak_rss_mb", peak_rss_mb(), "MiB");
  out.notes.push_back("validate: " + std::to_string(untraced_ms.samples()) + " timed queries");

  if (config.trace) {
    const double q = static_cast<double>(std::max<std::uint64_t>(counters.queries, 1));
    const auto self = tr.self_ms_by_name();
    const auto total = tr.total_ms_by_name();
    const auto at = [](const std::map<std::string, double>& m, const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    put(out, "io.parse_ms", at(self, "io.parse") / q, "ms");
    put(out, "io.parse_mb_per_s",
        counters.bytes_parsed / 1e6 / std::max(at(total, "io.parse") / 1000.0, 1e-9), "MB/s");
    put(out, "retime.graph_ms", at(self, "retime.graph") / q, "ms");
    put(out, "retime.solve_ms", at(self, "retime.solve") / q, "ms");
    put(out, "retime.sequence_ms", at(self, "retime.sequence") / q, "ms");
    put(out, "retime.moves", counters.moves / q, "count");
    put(out, "core.safety_ms", at(self, "core.safety") / q, "ms");
    put(out, "core.explicit_ms", at(self, "core.explicit") / q, "ms");
    put(out, "core.explicit_pairs", counters.explicit_pairs / q, "count");
    const double replayed = at(total, "core.safety") + at(total, "analysis.static_proof") +
                            at(total, "core.explicit") + at(total, "stg.extract") +
                            at(total, "stg.implies") + at(total, "stg.safe_replacement") +
                            at(total, "stg.min_delay");
    put(out, "core.unattributed_ms", (at(total, "core.validate") - replayed) / q, "ms");
    put(out, "stg.extract_ms", at(self, "stg.extract") / q, "ms");
    put(out, "stg.implies_ms", at(self, "stg.implies") / q, "ms");
    put(out, "stg.safe_replacement_ms", at(self, "stg.safe_replacement") / q, "ms");
    put(out, "stg.min_delay_ms", at(self, "stg.min_delay") / q, "ms");
    put(out, "stg.checked_share", counters.stg_checked / q, "share");
    put(out, "analysis.static_proof_ms", at(self, "analysis.static_proof") / q, "ms");
    put(out, "analysis.static_proof_share",
        counters.static_proofs / std::max(counters.static_attempts, 1.0), "share");
    put(out, "analysis.dataflow_updates", counters.dataflow_updates / q, "count");
    put(out, "trace.overhead_ms", traced_ms.percentile(0.5) - p50, "ms");
    if (!config.trace_path.empty()) tr.write_chrome_json(config.trace_path);
  }
  return out;
}

}  // namespace vb
