// Percentiles, peak RSS, the span tracer and the JSON result line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace vb {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

void QueryLatencies::add(std::size_t query, double ms) {
  if (query >= by_query_.size()) by_query_.resize(query + 1);
  by_query_[query].push_back(ms);
  ++samples_;
}

double QueryLatencies::percentile(double q) const {
  std::vector<double> per_query;
  for (const std::vector<double>& v : by_query_) {
    if (!v.empty()) per_query.push_back(*std::min_element(v.begin(), v.end()));
  }
  return vb::percentile(std::move(per_query), q);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- tracer ----------------------------------------------------------------

int Tracer::begin(const char* name, int query, int parent) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  spans_.push_back(Span{name, query, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

void Tracer::record(const char* name, int query, Clock::time_point start,
                    Clock::time_point end) {
  if (enabled_) spans_.push_back(Span{name, query, -1, start, end});
}

std::map<std::string, double> Tracer::total_ms_by_name() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += ms_between(s.start, s.end);
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  // Children of one span never overlap (every call is sequential within a
  // query), so the covered part is the sum of the children's durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += std::max(0.0, ms_between(s.start, s.end) - child_ms[i]);
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    f << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
      << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"query\":" << s.query
      << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  f << "]}\n";
}

// ---- tallies and report ------------------------------------------------------

void Tally::product_failure(const std::string& query) {
  ++product_failures;
  ++failures_by_query[query];
}

void Tally::check_failure(const std::string& query, const std::string& why) {
  ++check_failures;
  if (check_messages.size() < 20) check_messages.push_back(query + ": " + why);
}

void Tally::report(RunResult& out) const {
  out.attempted += attempted;
  out.failed += check_failures;
  for (const auto& [query, count] : failures_by_query) {
    out.notes.push_back("engine failure (counted in answered_share): " + query +
                        " x" + std::to_string(count));
  }
  for (const std::string& m : check_messages) out.notes.push_back("CHECK FAILED: " + m);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"verdict_ms_p50", "ms"},     {"verdict_ms_p90", "ms"},
      {"queries_per_s", "1/s"},     {"decided_share", "share"},
      {"answered_share", "share"},  {"serve_ms_p50_low", "ms"},
      {"serve_ms_p90_low", "ms"},   {"serve_ms_p50_high", "ms"},
      {"serve_ms_p90_high", "ms"},  {"goodput_per_s_high", "1/s"},
      {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"io.parse_ms", "ms"},
      {"io.parse_mb_per_s", "MB/s"},
      {"retime.graph_ms", "ms"},
      {"retime.solve_ms", "ms"},
      {"retime.sequence_ms", "ms"},
      {"retime.moves", "count"},
      {"core.safety_ms", "ms"},
      {"core.explicit_ms", "ms"},
      {"core.explicit_pairs", "count"},
      {"core.verify_ms", "ms"},
      {"core.portfolio_overhead_ms", "ms"},
      {"core.unattributed_ms", "ms"},
      {"stg.extract_ms", "ms"},
      {"stg.implies_ms", "ms"},
      {"stg.safe_replacement_ms", "ms"},
      {"stg.min_delay_ms", "ms"},
      {"stg.checked_share", "share"},
      {"analysis.static_proof_ms", "ms"},
      {"analysis.static_proof_share", "share"},
      {"analysis.lint_ms", "ms"},
      {"analysis.dataflow_updates", "count"},
      {"aig.compile_ms", "ms"},
      {"aig.encode_ms", "ms"},
      {"aig.nodes", "count"},
      {"sat.ms", "ms"},
      {"sat.conflicts", "count"},
      {"sat.decisions", "count"},
      {"sat.propagations", "count"},
      {"sat.bmc_depth", "count"},
      {"sat.induction_k", "count"},
      {"sat.proven_share", "share"},
      {"bdd.ms", "ms"},
      {"bdd.peak_nodes", "count"},
      {"bdd.iterations", "count"},
      {"bdd.gc_runs", "count"},
      {"bdd.capacity_refusals", "count"},
      {"bdd.proven_share", "share"},
      {"fault.job_ms_p50", "ms"},
      {"fault.tests_run", "count"},
      {"fault.faults_dropped", "count"},
      {"fault.faults_per_s", "1/s"},
      {"sim.simulate_job_ms_p50", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p90", "ms"},
      {"serve.run_ms_p50.lint", "ms"},
      {"serve.run_ms_p50.simulate", "ms"},
      {"serve.run_ms_p50.validate", "ms"},
      {"serve.run_ms_p50.cls-equivalence", "ms"},
      {"serve.run_ms_p50.faultsim", "ms"},
      {"serve.overhead_ms_p50", "ms"},
      {"serve.cache_hit_share", "share"},
      {"serve.cache_evictions", "count"},
      {"serve.shed", "count"},
      {"trace.overhead_ms", "ms"},
  };
  return list;
}

void fill_missing(RunResult& r, bool trace) {
  for (const auto& [name, unit] : trace ? per_layer_metrics() : end_to_end_metrics()) {
    if (!r.metrics.count(name)) put(r, name, 0.0, unit);
  }
}

std::string render_result_json(const RunResult& r, bool correct) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace vb
