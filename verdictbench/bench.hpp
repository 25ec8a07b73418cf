#pragma once
// Shared pieces of the design-text-to-verdict benchmark: the corpus, the
// span tracer, the metric report and the per-workload entry points.
//
// Every workload runs in one process that links the library. The program
// under test only ever sees generated design text; the benchmark parses,
// retimes and checks through the public functions each layer exports.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/vectors.hpp"
#include "util/rng.hpp"

namespace vb {

using rtv::Netlist;
using rtv::Rng;
using rtv::TritsSeq;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Latency samples of a closed loop, kept per distinct query. A run makes
/// whole passes over its queries, so every query has several repeats.
class QueryLatencies {
 public:
  void add(std::size_t query, double ms);
  std::size_t samples() const { return samples_; }
  /// Each query's latency is the best of its repeats: on a shared host the
  /// same query runs up to ~1.6x slower while a neighbour is busy, for
  /// stretches longer than a run, and the best repeat is what tracks the
  /// code. The percentile is then taken across the distinct queries.
  double percentile(double q) const;

 private:
  std::vector<std::vector<double>> by_query_;
  std::size_t samples_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---- corpus ----------------------------------------------------------------

/// One design of the corpus, as the text a designer would hand over.
struct Design {
  std::string name;
  std::string why;   ///< why this design is in the corpus
  std::string text;  ///< .rnl text
};

enum class Objective { kMinArea, kMinPeriod };
const char* to_string(Objective objective);

/// The known answer of an equivalence query, derived without the engine
/// under test (see corpus.cpp for the three rules).
enum class Expect { kEquivalent, kNotEquivalent, kNoClaim };
const char* to_string(Expect expect);

struct ValidateQuery {
  std::string name;
  std::size_t design = 0;  ///< index into Corpus::designs
  Objective objective = Objective::kMinArea;
  bool premise = false;    ///< both sides preserve all-X (Cor 5.3's premise)
};

struct EquivPair {
  std::string name;
  std::string kind;  ///< "retimed" or "mutant"
  std::string text_a, text_b;
  Expect expect = Expect::kNoClaim;
};

/// The fixed design set. The seed never changes which designs are in it
/// (so verdict counts repeat exactly); it orders the queries and feeds the
/// serve workload's fresh designs and stimuli.
struct Corpus {
  std::vector<Design> designs;
  std::size_t find(const std::string& name) const;
};

Corpus build_corpus();
std::vector<ValidateQuery> validate_queries(const Corpus& corpus);

/// Retimes each listed design and builds the (original, retimed) pairs,
/// then injects kCls-detected faults into retimed designs for the mutant
/// pairs. Each mutant's witness test is replayed on ClsSimulator here;
/// a witness that does not replay aborts setup.
std::vector<EquivPair> equiv_pairs(const Corpus& corpus);
EquivPair retimed_pair(const Corpus& corpus, const std::string& name, Objective obj);
EquivPair paper_pair();
EquivPair mutant_pair(const Corpus& corpus, const std::string& name);

/// The compacted retimed netlist for the objective's lag solution.
Netlist retime(const Netlist& original, Objective objective);

/// Replays a ternary input sequence on both designs with ClsSimulator from
/// all-X; true iff some cycle's outputs differ (the sequence distinguishes).
bool distinguishes(const Netlist& a, const Netlist& b, const TritsSeq& inputs);

/// Deterministic Fisher-Yates shuffle driven by the run seed.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans are recorded around each public call the
/// benchmark makes; they are written out as Chrome trace-event JSON when
/// the run ends. A span's self time is its duration minus the part of it
/// its child spans cover.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when tracing is off).
  int begin(const char* name, int query, int parent = -1);
  void end(int id);
  /// Records a finished span from timestamps taken elsewhere (the serve
  /// client stamps jobs on its writer and reader threads).
  void record(const char* name, int query, Clock::time_point start, Clock::time_point end);

  /// Sum of self time per span name, in ms.
  std::map<std::string, double> self_ms_by_name() const;
  /// Total duration per span name, in ms.
  std::map<std::string, double> total_ms_by_name() const;
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int query;
    int parent;
    Clock::time_point start, end;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int query, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, query, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---- report ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  /// Queries whose benchmark check failed: a conclusive verdict against
  /// the known answer, a counterexample that does not replay, or an error
  /// outside the engine-defect class counted in answered_share.
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable report lines
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< where spans are written ("" = nowhere)
  std::string workdir = ".";  ///< scratch directory (serve socket)
  /// Corrupt one known answer, so the self-check can confirm it is caught.
  bool plant_wrong_answer = false;
};

/// Tallies of one closed-loop or open-loop run, shared by the workloads.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t proven = 0;
  std::uint64_t product_failures = 0;  ///< engine errors (answered_share)
  std::uint64_t check_failures = 0;    ///< benchmark check failures
  std::map<std::string, std::uint64_t> failures_by_query;
  std::vector<std::string> check_messages;

  void product_failure(const std::string& query);
  void check_failure(const std::string& query, const std::string& why);
  void report(RunResult& out) const;
};

/// Named metric helper.
inline void put(RunResult& r, const std::string& name, double value,
                const std::string& unit) {
  r.metrics[name] = Metric{value, unit};
}

/// The end-to-end and per-layer metric names, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills every listed metric the run did not produce with zero work (a
/// layer the workload never calls), so each run reports the full set.
void fill_missing(RunResult& r, bool trace);

std::string render_result_json(const RunResult& r, bool correct);

// ---- workloads -------------------------------------------------------------

RunResult run_validate(const RunConfig& config);
RunResult run_equiv(const RunConfig& config);
RunResult run_serve(const RunConfig& config);

/// Repeats a setup step `times` times, reports the median wall time in
/// seconds and keeps the last result. The previous result is torn down
/// before each timed step (for serve that joins a server thread), so its
/// teardown is not counted as setup.
template <typename F>
auto timed_setup(int times, double* median_s, F&& make) {
  std::optional<decltype(make())> value;
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    value.reset();
    const auto t0 = Clock::now();
    value.emplace(make());
    secs.push_back(ms_since(t0) / 1000.0);
  }
  *median_s = median(secs);
  return std::move(*value);
}

}  // namespace vb

