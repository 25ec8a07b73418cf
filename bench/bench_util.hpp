#pragma once
// Shared scaffolding for the experiment benchmarks: every bench binary
// first prints its paper-reproduction report (the table/figure data), then
// runs its google-benchmark timings. Benches with a measured contract
// write their BENCH_*.json through `Report`: one row per (workload, layer,
// metric, value, unit, optional gate), re-read with parse_json and every
// gate checked on the parsed rows (docs/performance.md "Bench reports").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "util/error.hpp"

namespace rtv::bench {

inline void heading(const std::string& experiment, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void line(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

/// RTV_BENCH_SMOKE set (to anything but "" or "0"): shrunken workloads, so
/// CI can run a report in seconds.
inline bool smoke_mode() {
  const char* v = std::getenv("RTV_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// An in-run contract violation: report it and exit non-zero.
[[noreturn]] inline void fail(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  std::exit(1);
}

inline void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Linearly interpolated percentile `p` in [0, 1] of an ascending sample;
/// 0 for an empty one.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

// ---- bench reports ---------------------------------------------------------

namespace detail {

/// A value a report can hold. JSON has no NaN or infinity, so the writer
/// turns any other value into null and the check rejects it.
inline bool finite_value(const JsonValue& v) {
  return v.is_string() || v.is_bool() ||
         (v.is_number() && std::isfinite(v.as_number()));
}

inline JsonValue writable(const JsonValue& v) {
  return finite_value(v) ? v : JsonValue(nullptr);
}

inline const std::string* string_member(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  return m != nullptr && m->is_string() ? &m->as_string() : nullptr;
}

inline bool same_value(const JsonValue& a, const JsonValue& b) {
  if (a.is_number() && b.is_number()) return a.as_number() == b.as_number();
  if (a.is_string() && b.is_string()) return a.as_string() == b.as_string();
  if (a.is_bool() && b.is_bool()) return a.as_bool() == b.as_bool();
  return false;
}

/// Why `value` fails `gate`, or "" when the gate holds.
inline std::string gate_violation(const JsonValue& value,
                                  const JsonValue& gate) {
  const std::string* op = string_member(gate, "op");
  const JsonValue* bound = gate.find("bound");
  if (op == nullptr || bound == nullptr || !finite_value(*bound)) {
    return "malformed gate";
  }
  const std::string fails = "fails " + *op + " " + write_json(*bound);
  if (*op == "eq") return same_value(value, *bound) ? "" : fails;
  if (*op != "min" && *op != "max") return "unknown gate op '" + *op + "'";
  if (!value.is_number() || !bound->is_number()) return fails + " (not a number)";
  const bool holds = *op == "min" ? value.as_number() >= bound->as_number()
                                  : value.as_number() <= bound->as_number();
  return holds ? "" : fails;
}

}  // namespace detail

/// A bound on one report row. "min" holds when value >= bound and "max"
/// when value <= bound (numbers only); "eq" when value equals bound, for a
/// number, a label or a flag.
struct Gate {
  std::string op;
  JsonValue bound;

  static Gate min(double bound) { return {"min", JsonValue(bound)}; }
  static Gate max(double bound) { return {"max", JsonValue(bound)}; }
  /// Strict bounds, written as the next double past `bound`.
  static Gate above(double bound) {
    return min(std::nextafter(bound, std::numeric_limits<double>::infinity()));
  }
  static Gate below(double bound) {
    return max(std::nextafter(bound, -std::numeric_limits<double>::infinity()));
  }
  static Gate eq(double bound) { return {"eq", JsonValue(bound)}; }
  static Gate eq(bool bound) { return {"eq", JsonValue(bound)}; }
  static Gate eq(const char* bound) {
    return {"eq", JsonValue(std::string(bound))};
  }

  JsonValue to_json() const {
    return JsonValue(JsonValue::Object{{"op", JsonValue(op)},
                                       {"bound", detail::writable(bound)}});
  }
};

/// Identifies one row of a report.
struct RowKey {
  std::string workload;
  std::string layer;
  std::string metric;

  std::string name() const { return workload + " / " + layer + " / " + metric; }
};

using DeclaredGates = std::vector<std::pair<RowKey, Gate>>;

/// Every problem with a parsed (or rendered) report: a malformed document
/// or row, a duplicate row, a value that is not a finite number, label or
/// flag, a gate that does not hold, or a declared gate whose row is
/// missing or carries a different gate. Empty when the report passes.
inline std::vector<std::string> check_report(const JsonValue& doc,
                                             const DeclaredGates& declared) {
  std::vector<std::string> problems;
  const JsonValue* version = doc.find("schema_version");
  const JsonValue* smoke = doc.find("smoke");
  const JsonValue* rows = doc.find("rows");
  if (detail::string_member(doc, "benchmark") == nullptr ||
      version == nullptr || !version->is_number() ||
      version->as_number() != 2 || smoke == nullptr || !smoke->is_bool() ||
      rows == nullptr || !rows->is_array()) {
    return {"not a schema_version 2 report"};
  }
  std::map<std::string, const JsonValue*> by_name;
  for (const JsonValue& row : rows->as_array()) {
    const std::string* workload = detail::string_member(row, "workload");
    const std::string* layer = detail::string_member(row, "layer");
    const std::string* metric = detail::string_member(row, "metric");
    const JsonValue* value = row.find("value");
    if (workload == nullptr || layer == nullptr || metric == nullptr ||
        value == nullptr || detail::string_member(row, "unit") == nullptr) {
      problems.push_back("malformed row " + write_json(row));
      continue;
    }
    const std::string name = RowKey{*workload, *layer, *metric}.name();
    if (!by_name.emplace(name, &row).second) {
      problems.push_back(name + ": duplicate row");
    }
    if (!detail::finite_value(*value)) {
      problems.push_back(name + ": value is not a finite number, label or flag");
    } else if (const JsonValue* gate = row.find("gate")) {
      const std::string why = detail::gate_violation(*value, *gate);
      if (!why.empty()) {
        problems.push_back(name + ": value " + write_json(*value) + " " + why);
      }
    }
  }
  for (const auto& [key, gate] : declared) {
    const auto row = by_name.find(key.name());
    if (row == by_name.end()) {
      problems.push_back(key.name() + ": gated row missing");
      continue;
    }
    const JsonValue* carried = row->second->find("gate");
    if (carried == nullptr ||
        write_json(*carried) != write_json(gate.to_json())) {
      problems.push_back(key.name() + ": row does not carry its gate " +
                         write_json(gate.to_json()));
    }
  }
  return problems;
}

/// One bench report. Gates are declared before measuring, so dropping a
/// measured row fails the check instead of silently dropping its gate.
class Report {
 public:
  explicit Report(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  /// Row `key` must be reported and satisfy `gate`.
  void gate(RowKey key, Gate gate) {
    gates_.emplace_back(std::move(key), std::move(gate));
  }

  void add(RowKey key, double value, std::string unit) {
    rows_.push_back({std::move(key), JsonValue(value), std::move(unit)});
  }
  void add_label(RowKey key, std::string label) {
    rows_.push_back({std::move(key), JsonValue(std::move(label)), "label"});
  }
  void add_flag(RowKey key, bool flag) {
    rows_.push_back({std::move(key), JsonValue(flag), "flag"});
  }

  const DeclaredGates& gates() const { return gates_; }

  /// The report document, each row carrying its declared gate; a
  /// non-finite value is written as null.
  JsonValue to_json() const {
    JsonValue::Array rows;
    for (const Row& r : rows_) {
      JsonValue::Object row{{"workload", JsonValue(r.key.workload)},
                            {"layer", JsonValue(r.key.layer)},
                            {"metric", JsonValue(r.key.metric)},
                            {"value", detail::writable(r.value)},
                            {"unit", JsonValue(r.unit)}};
      for (const auto& [key, gate] : gates_) {
        if (key.name() == r.key.name()) row.emplace_back("gate", gate.to_json());
      }
      rows.emplace_back(std::move(row));
    }
    return JsonValue(JsonValue::Object{{"benchmark", JsonValue(benchmark_)},
                                       {"schema_version", JsonValue(2.0)},
                                       {"smoke", JsonValue(smoke_mode())},
                                       {"rows", JsonValue(std::move(rows))}});
  }

  /// Writes the report to RTV_BENCH_JSON (default `default_path`), one row
  /// per line, reads it back and checks it; exits non-zero naming every
  /// failing row.
  void emit(const std::string& default_path) const {
    const char* env = std::getenv("RTV_BENCH_JSON");
    const std::string path =
        env != nullptr && env[0] != '\0' ? env : default_path;
    {
      const JsonValue doc = to_json();
      std::string text = write_json(doc);
      const std::size_t rows_at = text.find("\"rows\":[") + 8;
      std::string body;
      for (const JsonValue& row : doc.find("rows")->as_array()) {
        body += (body.empty() ? "\n" : ",\n") + write_json(row);
      }
      text = text.substr(0, rows_at) + body + "\n]}\n";
      std::ofstream out(path);
      out << text;
      check(out.good(), "cannot write " + path);
    }
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue parsed;
    try {
      parsed = parse_json(text.str());
    } catch (const Error& e) {
      fail(path + " is not valid JSON: " + e.what());
    }
    const std::vector<std::string> problems = check_report(parsed, gates_);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), p.c_str());
    }
    if (!problems.empty()) std::exit(1);
    std::printf("wrote %s (%zu rows, %zu gates hold)\n", path.c_str(),
                rows_.size(), gates_.size());
  }

 private:
  struct Row {
    RowKey key;
    JsonValue value;
    std::string unit;
  };

  std::string benchmark_;
  DeclaredGates gates_;
  std::vector<Row> rows_;
};

}  // namespace rtv::bench

/// Defines main(): print the report, then run registered benchmarks.
#define RTV_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                     \
    report_fn();                                        \
    ::benchmark::Initialize(&argc, argv);               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();              \
    ::benchmark::Shutdown();                            \
    return 0;                                           \
  }
