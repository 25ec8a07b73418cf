// Backend matrix — per-backend (explicit, BDD, SAT, portfolio)
// time-to-verdict on the cone shapes that separate the engines, plus the
// portfolio contract:
//
//  * bdd_friendly: a pipelined ripple-carry adder against its min-area
//    retiming. The dual-rail encoding keeps narrow BDDs, so symbolic
//    reachability proves CLS equivalence quickly; SAT may or may not close
//    the proof by induction.
//  * multiplier_like: two pipelined array multipliers with different
//    register placement (and hence different latency) — CLS-distinguishable
//    with a shallow definitive counterexample. Multiplication is the
//    classic BDD killer: under a deliberately small node cap the BDD engine
//    exhausts, while SAT answers definitively within the default budget.
//  * narrow_random: a seeded 3-input, 60-gate random design against its
//    min-period retiming. Its reachable state-pair set is small, so the
//    portfolio's explicit stage proves it before the BDD/SAT race starts.
//
// The report asserts the engine-matrix contract before writing anything:
// on multiplier_like the capped BDD run must exhaust AND the SAT run must
// return a definitive (proven) verdict; on narrow_random the explicit stage
// must decide the portfolio run; on every workload the portfolio
// must return a conclusive verdict and finish within 1.2x the best single
// backend (plus a small absolute grace for thread-scheduling jitter on
// sub-millisecond runs). The machine-readable BENCH_backend.json (path
// overridable via RTV_BENCH_JSON) records per-backend timings, verdicts
// and the portfolio's decided_by; the binary re-reads and schema-checks
// the file, exiting non-zero on any violation. RTV_BENCH_SMOKE=1 shrinks
// the cones so CI can run the report in seconds.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/safety.hpp"
#include "core/verify.hpp"
#include "gen/datapath.hpp"
#include "gen/random_circuits.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace rtv {
namespace {

/// Absolute grace on top of the 1.2x bound: the portfolio pays two thread
/// spawns and a condition-variable handshake, which dominates only when
/// the best engine finishes in microseconds.
constexpr double kPortfolioGraceMs = 25.0;

bool smoke_mode() {
  const char* v = std::getenv("RTV_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

struct EngineRun {
  std::string backend;
  double ms = 0.0;
  std::string verdict;
  bool equivalent = false;
  std::string decided_by;
};

struct Workload {
  std::string name;
  std::vector<EngineRun> runs;
  double best_single_ms = 0.0;   ///< fastest *conclusive* single backend
  double portfolio_ms = 0.0;
  bool portfolio_conclusive = false;
  bool portfolio_within_bound = false;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

EngineRun run_engine(EquivalenceBackend backend, const Netlist& a,
                     const Netlist& b, const VerifyOptions& base) {
  VerifyOptions opt = base;
  opt.backend = backend;
  ResourceBudget budget((ResourceLimits()));  // default caps, no deadline
  const auto t0 = std::chrono::steady_clock::now();
  const ClsEquivalenceResult r = verify_cls_equivalence(a, b, opt, &budget);
  EngineRun run;
  run.ms = ms_since(t0);
  run.backend = to_string(backend);
  run.verdict = to_string(r.verdict);
  run.equivalent = r.equivalent;
  run.decided_by = to_string(r.decided_by);
  return run;
}

Workload run_workload(const std::string& name, const Netlist& a,
                      const Netlist& b, const VerifyOptions& base) {
  Workload w;
  w.name = name;
  for (const EquivalenceBackend backend :
       {EquivalenceBackend::kExplicit, EquivalenceBackend::kBdd,
        EquivalenceBackend::kSat, EquivalenceBackend::kPortfolio}) {
    w.runs.push_back(run_engine(backend, a, b, base));
  }
  for (const EngineRun& r : w.runs) {
    if (r.backend == std::string("portfolio")) {
      w.portfolio_ms = r.ms;
      w.portfolio_conclusive = r.verdict == std::string("proven");
    } else if (r.verdict == std::string("proven")) {
      if (w.best_single_ms == 0.0 || r.ms < w.best_single_ms) {
        w.best_single_ms = r.ms;
      }
    }
  }
  w.portfolio_within_bound =
      w.best_single_ms > 0.0 &&
      w.portfolio_ms <= 1.2 * w.best_single_ms + kPortfolioGraceMs;
  return w;
}

const EngineRun* find_run(const Workload& w, const char* backend) {
  for (const EngineRun& r : w.runs) {
    if (r.backend == std::string(backend)) return &r;
  }
  return nullptr;
}

std::vector<Workload> run_report(bool smoke) {
  std::vector<Workload> workloads;

  // BDD-friendly cone: adder vs its own min-area retiming (equivalent).
  {
    const Netlist adder = pipelined_adder(smoke ? 4 : 6, 2);
    const RetimeGraph g = RetimeGraph::from_netlist(adder);
    SequencedRetiming seq;
    analyze_lag_retiming(adder, g, min_area_retime(g).lag, &seq);
    workloads.push_back(
        run_workload("bdd_friendly", adder, seq.retimed, VerifyOptions{}));
  }

  // Multiplier-like cone: two register placements of the same array
  // multiplier with different latency (CLS-distinguishable). The BDD node
  // cap is deliberately small so symbolic reachability exhausts on the
  // multiplication structure; SAT must still answer definitively.
  {
    const unsigned bits = smoke ? 3 : 4;
    const Netlist fine = pipelined_multiplier(bits, smoke ? 1 : 2);
    const Netlist coarse = pipelined_multiplier(bits, bits);
    VerifyOptions base;
    base.bdd.node_limit = smoke ? 3000 : 20000;
    workloads.push_back(run_workload("multiplier_like", fine, coarse, base));
  }

  // Narrow random cone: few inputs and a small reachable pair set, which
  // the portfolio's explicit stage decides on its own.
  {
    RandomCircuitOptions o;
    o.num_gates = 60;
    o.num_latches = 8;
    Rng rng(3);
    const Netlist n = random_netlist(o, rng);
    const RetimeGraph g = RetimeGraph::from_netlist(n);
    SequencedRetiming seq;
    analyze_lag_retiming(n, g, min_period_retime_feas(g).lag, &seq);
    workloads.push_back(
        run_workload("narrow_random", n, seq.retimed, VerifyOptions{}));
  }

  return workloads;
}

std::string bench_json_path() {
  const char* v = std::getenv("RTV_BENCH_JSON");
  return (v != nullptr && v[0] != '\0') ? v : "BENCH_backend.json";
}

std::string render_bench_json(const std::vector<Workload>& workloads) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"benchmark\": \"backend_portfolio\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"smoke\": " << (smoke_mode() ? "true" : "false") << ",\n";
  os << "  \"portfolio_grace_ms\": " << kPortfolioGraceMs << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    os << "    {\n";
    os << "      \"name\": \"" << w.name << "\",\n";
    os << "      \"backends\": [\n";
    for (std::size_t j = 0; j < w.runs.size(); ++j) {
      const EngineRun& r = w.runs[j];
      os << "        {\n";
      os << "          \"backend\": \"" << r.backend << "\",\n";
      os << "          \"ms\": " << r.ms << ",\n";
      os << "          \"verdict\": \"" << r.verdict << "\",\n";
      os << "          \"equivalent\": " << (r.equivalent ? "true" : "false")
         << ",\n";
      os << "          \"decided_by\": \"" << r.decided_by << "\"\n";
      os << "        }" << (j + 1 < w.runs.size() ? "," : "") << "\n";
    }
    os << "      ],\n";
    os << "      \"best_single_ms\": " << w.best_single_ms << ",\n";
    os << "      \"portfolio_ms\": " << w.portfolio_ms << ",\n";
    os << "      \"portfolio_conclusive\": "
       << (w.portfolio_conclusive ? "true" : "false") << ",\n";
    os << "      \"portfolio_within_bound\": "
       << (w.portfolio_within_bound ? "true" : "false") << "\n";
    os << "    }" << (i + 1 < workloads.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Minimal schema check (no JSON library in the image): required keys,
/// balanced nesting, and the portfolio contract flags true in every
/// workload.
std::string validate_bench_json(const std::string& text) {
  for (const char* key :
       {"\"benchmark\"", "\"schema_version\"", "\"smoke\"",
        "\"portfolio_grace_ms\"", "\"workloads\"", "\"name\"",
        "\"backends\"", "\"backend\"", "\"ms\"", "\"verdict\"",
        "\"equivalent\"", "\"decided_by\"", "\"best_single_ms\"",
        "\"portfolio_ms\"", "\"portfolio_conclusive\"",
        "\"portfolio_within_bound\""}) {
    if (text.find(key) == std::string::npos) {
      return std::string("missing key ") + key;
    }
  }
  long depth_brace = 0, depth_bracket = 0;
  for (char c : text) {
    if (c == '{') ++depth_brace;
    if (c == '}') --depth_brace;
    if (c == '[') ++depth_bracket;
    if (c == ']') --depth_bracket;
    if (depth_brace < 0 || depth_bracket < 0) return "unbalanced nesting";
  }
  if (depth_brace != 0 || depth_bracket != 0) return "unbalanced nesting";
  std::size_t pos = 0;
  unsigned entries = 0;
  for (const char* flag :
       {"\"portfolio_conclusive\":", "\"portfolio_within_bound\":"}) {
    pos = 0;
    entries = 0;
    const std::size_t len = std::string(flag).size();
    while ((pos = text.find(flag, pos)) != std::string::npos) {
      pos += len;
      if (text.compare(pos, 5, " true") != 0) {
        return std::string("contract flag false: ") + flag;
      }
      ++entries;
    }
    if (entries == 0) return std::string("no workloads carry ") + flag;
  }
  return "";
}

void emit_bench_json(const std::vector<Workload>& workloads) {
  const std::string path = bench_json_path();
  {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    f << render_bench_json(workloads);
  }
  std::ifstream f(path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  const std::string problem = validate_bench_json(buffer.str());
  if (!problem.empty()) {
    std::fprintf(stderr, "error: %s fails schema check: %s\n", path.c_str(),
                 problem.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (schema ok)\n", path.c_str());
}

}  // namespace

void report() {
  bench::heading("backend matrix / portfolio",
                 "per-backend time-to-verdict on BDD-friendly, "
                 "multiplier-like and narrow random cones; portfolio "
                 "contract");
  const std::vector<Workload> workloads = run_report(smoke_mode());

  for (const Workload& w : workloads) {
    std::printf("\n%s:\n", w.name.c_str());
    std::printf("  %-10s %-12s %-10s %-12s %s\n", "backend", "ms", "verdict",
                "equivalent", "decided by");
    for (const EngineRun& r : w.runs) {
      std::printf("  %-10s %-12.2f %-10s %-12s %s\n", r.backend.c_str(), r.ms,
                  r.verdict.c_str(), r.equivalent ? "yes" : "no",
                  r.decided_by.c_str());
    }
    std::printf("  best single %.2f ms, portfolio %.2f ms (bound 1.2x + "
                "%.0f ms grace)\n",
                w.best_single_ms, w.portfolio_ms, kPortfolioGraceMs);
  }

  // ---- contract checks, loudly and before the JSON ----------------------
  for (const Workload& w : workloads) {
    if (!w.portfolio_conclusive) {
      std::fprintf(stderr, "error: portfolio inconclusive on %s\n",
                   w.name.c_str());
      std::exit(1);
    }
    if (!w.portfolio_within_bound) {
      std::fprintf(stderr,
                   "error: portfolio %.2f ms exceeds 1.2x best single "
                   "backend %.2f ms on %s\n",
                   w.portfolio_ms, w.best_single_ms, w.name.c_str());
      std::exit(1);
    }
  }
  const Workload& mult = workloads[1];
  const EngineRun* bdd = find_run(mult, "bdd");
  const EngineRun* sat = find_run(mult, "sat");
  if (bdd == nullptr || bdd->verdict != std::string("exhausted")) {
    std::fprintf(stderr,
                 "error: capped BDD run did not exhaust on multiplier_like "
                 "(got %s) — the workload no longer separates the engines\n",
                 bdd == nullptr ? "missing" : bdd->verdict.c_str());
    std::exit(1);
  }
  if (sat == nullptr || sat->verdict != std::string("proven")) {
    std::fprintf(stderr,
                 "error: SAT run was not definitive on multiplier_like "
                 "(got %s)\n",
                 sat == nullptr ? "missing" : sat->verdict.c_str());
    std::exit(1);
  }
  const EngineRun* staged = find_run(workloads[2], "portfolio");
  if (staged == nullptr || staged->decided_by != std::string("explicit")) {
    std::fprintf(stderr,
                 "error: the explicit stage did not decide the portfolio run "
                 "on narrow_random (decided by %s)\n",
                 staged == nullptr ? "missing" : staged->decided_by.c_str());
    std::exit(1);
  }
  std::printf("\nengine-matrix contract holds: capped BDD exhausts on the "
              "multiplier cone,\nSAT stays definitive, the explicit stage "
              "decides the narrow cone, portfolio\nconclusive within its "
              "bound on every workload\n");
  emit_bench_json(workloads);
}

}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
