// Workload `equiv`: the `rtv cls-equiv --backend portfolio` product.
// Closed loop, one caller. Each query makes the calls the CLI makes: two
// read_rnl calls, then verify_cls_equivalence with the portfolio backend
// under a fixed per-query wall-clock limit. Pairs are (original, retimed)
// and (retimed, fault-injected retimed) in roughly equal numbers.

#include <stdexcept>

#include "aig/cls_encode.hpp"
#include "aig/compile.hpp"
#include "analysis/dataflow.hpp"
#include "bdd/cls_bdd.hpp"
#include "bench.hpp"
#include "core/verify.hpp"
#include "io/rnl_format.hpp"
#include "sat/equiv.hpp"

namespace vb {

using namespace rtv;

namespace {

/// Per-query wall-clock limit. Decided pairs finish in under half of it;
/// the controller_datapath self-miter exhausts both engines.
constexpr std::uint64_t kLimitMs = 300;

/// A BDD node cap well below the library default, so the exhausting miter
/// stops growing at the same size on every run (steady peak RSS).
constexpr std::size_t kNodeLimit = std::size_t{1} << 18;

ResourceLimits limits() {
  ResourceLimits l;
  l.time_budget_ms = kLimitMs;
  l.bdd_node_limit = kNodeLimit;
  return l;
}

struct Counters {
  double bytes_parsed = 0;
  std::uint64_t queries = 0;
  double static_attempts = 0, static_proofs = 0;
  double dataflow_updates = 0;
  double aig_nodes = 0;
  double sat_runs = 0, sat_proven = 0, sat_conflicts = 0, sat_decisions = 0,
         sat_propagations = 0, sat_depth = 0, sat_k = 0;
  double bdd_runs = 0, bdd_proven = 0, bdd_peak = 0, bdd_iterations = 0, bdd_gc = 0,
         bdd_refusals = 0;
  double overhead_ms = 0, overhead_n = 0;
};

struct Outcome {
  double ms = 0;         ///< text to verdict, as counted
  double verify_ms = 0;  ///< the verify_cls_equivalence call alone
  bool proven = false;
  std::optional<EquivalenceBackend> winner;
};

Outcome run_query(const EquivPair& p, Tracer& tr, int qid, Tally& tally) {
  Outcome out;
  ++tally.attempted;
  const auto t0 = Clock::now();
  try {
    Scope root(tr, "equiv.query", qid);
    Netlist a, b;
    {
      Scope s(tr, "io.parse", qid, root.id());
      a = read_rnl(p.text_a);
      b = read_rnl(p.text_b);
    }
    VerifyOptions opt;
    opt.backend = EquivalenceBackend::kPortfolio;
    ResourceBudget budget(limits());
    std::optional<ClsEquivalenceResult> r;
    {
      Scope s(tr, "core.verify", qid, root.id());
      const auto v0 = Clock::now();
      r.emplace(verify_cls_equivalence(a, b, opt, &budget));
      out.verify_ms = ms_since(v0);
    }
    out.ms = ms_since(t0);
    out.proven = r->verdict == Verdict::kProven;
    if (r->verdict == Verdict::kExhausted) out.ms = static_cast<double>(kLimitMs);
    if (out.proven) out.winner = r->decided_by;

    if (r->counterexample && !distinguishes(a, b, *r->counterexample)) {
      tally.check_failure(p.name, "counterexample does not replay on ClsSimulator");
    }
    const bool refuted = !r->equivalent && r->counterexample.has_value();
    if (p.expect == Expect::kEquivalent && refuted) {
      tally.check_failure(p.name, "refuted a pair that meets Cor 5.3's premise");
    }
    if (p.expect == Expect::kNotEquivalent && out.proven && r->equivalent) {
      tally.check_failure(p.name, "proved a kCls-detected mutant equivalent");
    }
  } catch (const InternalError& e) {
    out = Outcome{static_cast<double>(kLimitMs), 0, false, std::nullopt};
    tally.product_failure(p.name);
  } catch (const std::exception& e) {
    out = Outcome{static_cast<double>(kLimitMs), 0, false, std::nullopt};
    tally.check_failure(p.name, std::string("unexpected error: ") + e.what());
  }
  if (out.proven) ++tally.proven;
  return out;
}

/// Traced run only: the engines the portfolio runs, called standalone under
/// the same limit. Portfolio ResourceUsage drops both engines' counters, so
/// this is where the sat/bdd/aig split comes from. Returns the standalone
/// wall time of `winner` (static, sat or bdd) when there is one.
double replay_engines(const EquivPair& p, Tracer& tr, int qid, Counters& c,
                      std::optional<EquivalenceBackend> winner) {
  Scope root(tr, "equiv.replay", qid);
  const Netlist a = read_rnl(p.text_a);
  const Netlist b = read_rnl(p.text_b);
  double static_ms = 0, sat_ms = 0, bdd_ms = 0;
  c.dataflow_updates += static_cast<double>(run_dataflow(a).stats().updates +
                                            run_dataflow(b).stats().updates);
  {
    Scope s(tr, "analysis.static_proof", qid, root.id());
    const auto t0 = Clock::now();
    const bool proved = static_cls_equivalence_proof(a, b).has_value();
    static_ms = ms_since(t0);
    ++c.static_attempts;
    c.static_proofs += proved ? 1 : 0;
  }
  {
    std::optional<ClsEncoding> ea, eb;
    {
      Scope s(tr, "aig.encode", qid, root.id());
      ea.emplace(cls_encode(a));
      eb.emplace(cls_encode(b));
    }
    Scope s(tr, "aig.compile", qid, root.id());
    c.aig_nodes += static_cast<double>(
        aig_from_netlist(ea->netlist, ea->all_x_state()).num_ands() +
        aig_from_netlist(eb->netlist, eb->all_x_state()).num_ands());
  }
  {
    Scope s(tr, "sat", qid, root.id());
    ResourceBudget budget(limits());
    const auto t0 = Clock::now();
    const SatClsOutcome o = sat_cls_equivalence(a, b, {}, &budget);
    sat_ms = ms_since(t0);
    ++c.sat_runs;
    c.sat_proven += o.verdict == Verdict::kProven ? 1 : 0;
    c.sat_conflicts += static_cast<double>(o.conflicts);
    c.sat_decisions += static_cast<double>(o.decisions);
    c.sat_propagations += static_cast<double>(o.propagations);
    c.sat_depth += o.depth_reached;
    c.sat_k += o.induction_depth;
  }
  {
    Scope s(tr, "bdd", qid, root.id());
    ResourceBudget budget(limits());
    const auto t0 = Clock::now();
    const BddClsOutcome o = bdd_cls_equivalence(a, b, {}, &budget);
    bdd_ms = ms_since(t0);
    ++c.bdd_runs;
    c.bdd_proven += o.verdict == Verdict::kProven ? 1 : 0;
    c.bdd_peak += static_cast<double>(std::max(o.engine.peak_nodes, o.bdd_nodes));
    c.bdd_iterations += o.iterations;
    c.bdd_gc += static_cast<double>(o.engine.gc_runs);
    // The miter refuses designs over the symbolic machine's 256-variable
    // cap per section (bdd/cls_bdd.cpp) before building anything.
    c.bdd_refusals += o.note.find("cap 256") != std::string::npos ? 1 : 0;
  }
  if (!winner) return -1;
  switch (*winner) {
    case EquivalenceBackend::kStatic: return static_ms;
    case EquivalenceBackend::kSat: return static_ms + sat_ms;
    case EquivalenceBackend::kBdd: return static_ms + bdd_ms;
    default: return -1;
  }
}

}  // namespace

RunResult run_equiv(const RunConfig& config) {
  RunResult out;
  double setup_s = 0;
  std::vector<EquivPair> pairs = timed_setup(5, &setup_s, [] {
    const Corpus corpus = build_corpus();
    return equiv_pairs(corpus);
  });
  shuffle(pairs, config.seed);
  if (config.plant_wrong_answer) {
    for (EquivPair& p : pairs) {
      if (p.kind == "mutant") {
        p.expect = Expect::kEquivalent;
        break;
      }
    }
  }
  std::size_t mutants = 0;
  for (const EquivPair& p : pairs) mutants += p.kind == "mutant" ? 1 : 0;
  out.notes.push_back("equiv corpus: " + std::to_string(pairs.size() - mutants) +
                      " retimed pairs, " + std::to_string(mutants) +
                      " mutants, per-query limit " + std::to_string(kLimitMs) + " ms");
  for (const EquivPair& p : pairs) {
    out.notes.push_back("  " + p.name + " (" + p.kind + ", expect " + to_string(p.expect) + ")");
  }

  Tracer off(false);
  {
    Tally warm;
    for (std::size_t i = 0; i < pairs.size() / 2; ++i) run_query(pairs[i], off, -1, warm);
  }

  Tracer tr(config.trace);
  Tally tally;
  Counters counters;
  QueryLatencies untraced_ms, traced_ms;
  double untraced_elapsed_ms = 0;
  const auto start = Clock::now();
  int qid = 0;
  for (int pass = 0;; ++pass) {
    const bool traced_pass = config.trace && pass % 2 == 1;
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const EquivPair& p = pairs[i];
      if (traced_pass) {
        Tally scratch;
        const Outcome o = run_query(p, tr, qid, scratch);
        traced_ms.add(i, o.ms);
        ++counters.queries;
        counters.bytes_parsed += static_cast<double>(p.text_a.size() + p.text_b.size());
        const double winner_ms = replay_engines(p, tr, qid, counters, o.winner);
        if (winner_ms >= 0) {
          counters.overhead_ms += o.verify_ms - winner_ms;
          ++counters.overhead_n;
        }
        ++qid;
      } else {
        untraced_ms.add(i, run_query(p, off, -1, tally).ms);
      }
    }
    if (!traced_pass) untraced_elapsed_ms += ms_since(pass_start);
    const bool enough = ms_since(start) >= config.seconds * 1000.0 && untraced_ms.samples() >= 100;
    if (enough && (!config.trace || traced_ms.samples() > 0)) break;
  }

  tally.report(out);
  const double p50 = untraced_ms.percentile(0.5), p90 = untraced_ms.percentile(0.9);
  const double n = static_cast<double>(untraced_ms.samples());
  const double secs = untraced_elapsed_ms / 1000.0;
  put(out, "verdict_ms_p50", p50, "ms");
  put(out, "verdict_ms_p90", p90, "ms");
  put(out, "queries_per_s", n / secs, "1/s");
  put(out, "decided_share", static_cast<double>(tally.proven) / n, "share");
  put(out, "answered_share", 1.0 - static_cast<double>(tally.product_failures) / n, "share");
  // One caller and no queue (see validate.cpp).
  put(out, "serve_ms_p50_low", p50, "ms");
  put(out, "serve_ms_p90_low", p90, "ms");
  put(out, "serve_ms_p50_high", p50, "ms");
  put(out, "serve_ms_p90_high", p90, "ms");
  put(out, "goodput_per_s_high", static_cast<double>(tally.proven) / secs, "1/s");
  put(out, "setup_s", setup_s, "s");
  // Each portfolio run allocates in fresh engine threads, so the peak grows
  // over the first passes as the allocator's arenas fill, then levels off.
  put(out, "peak_rss_mb", peak_rss_mb(), "MiB");
  out.notes.push_back("equiv: " + std::to_string(untraced_ms.samples()) + " timed queries");

  if (config.trace) {
    const double q = static_cast<double>(std::max<std::uint64_t>(counters.queries, 1));
    const auto self = tr.self_ms_by_name();
    const auto total = tr.total_ms_by_name();
    const auto at = [](const std::map<std::string, double>& m, const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    const auto share = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    put(out, "io.parse_ms", at(self, "io.parse") / q, "ms");
    put(out, "io.parse_mb_per_s",
        counters.bytes_parsed / 1e6 / std::max(at(total, "io.parse") / 1000.0, 1e-9), "MB/s");
    put(out, "core.verify_ms", at(total, "core.verify") / q, "ms");
    put(out, "core.portfolio_overhead_ms", share(counters.overhead_ms, counters.overhead_n), "ms");
    put(out, "analysis.static_proof_ms", at(self, "analysis.static_proof") / q, "ms");
    put(out, "analysis.static_proof_share", share(counters.static_proofs, counters.static_attempts),
        "share");
    put(out, "analysis.dataflow_updates", counters.dataflow_updates / q, "count");
    put(out, "aig.encode_ms", at(self, "aig.encode") / q, "ms");
    put(out, "aig.compile_ms", at(self, "aig.compile") / q, "ms");
    put(out, "aig.nodes", counters.aig_nodes / q, "count");
    put(out, "sat.ms", at(self, "sat") / q, "ms");
    put(out, "sat.conflicts", counters.sat_conflicts / q, "count");
    put(out, "sat.decisions", counters.sat_decisions / q, "count");
    put(out, "sat.propagations", counters.sat_propagations / q, "count");
    put(out, "sat.bmc_depth", counters.sat_depth / q, "count");
    put(out, "sat.induction_k", counters.sat_k / q, "count");
    put(out, "sat.proven_share", share(counters.sat_proven, counters.sat_runs), "share");
    put(out, "bdd.ms", at(self, "bdd") / q, "ms");
    put(out, "bdd.peak_nodes", counters.bdd_peak / q, "count");
    put(out, "bdd.iterations", counters.bdd_iterations / q, "count");
    put(out, "bdd.gc_runs", counters.bdd_gc / q, "count");
    // Pairs per pass over the cap (a count of designs, not a per-query mean).
    put(out, "bdd.capacity_refusals",
        counters.bdd_refusals * static_cast<double>(pairs.size()) / q, "count");
    put(out, "bdd.proven_share", share(counters.bdd_proven, counters.bdd_runs), "share");
    put(out, "trace.overhead_ms", traced_ms.percentile(0.5) - p50, "ms");
    if (!config.trace_path.empty()) tr.write_chrome_json(config.trace_path);
  }
  return out;
}

}  // namespace vb
