// The shared bench report (bench/bench_util.hpp): row schema, gate ops and
// the check every bench smoke test relies on to fail loudly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/json.hpp"

namespace rtv::bench {
namespace {

std::vector<std::string> check(const Report& report) {
  return check_report(report.to_json(), report.gates());
}

/// The one problem `report` has; fails the test unless there is exactly one
/// and it names `row`.
std::string only_problem(const Report& report, const std::string& row) {
  const std::vector<std::string> problems = check(report);
  EXPECT_EQ(problems.size(), 1u);
  if (problems.empty()) return "";
  EXPECT_EQ(problems[0].rfind(row + ":", 0), 0u) << problems[0];
  return problems[0];
}

Report passing_report() {
  Report r("unit");
  r.gate({"w", "l", "speedup"}, Gate::min(3.0));
  r.gate({"w", "l", "p99_ms"}, Gate::max(250.0));
  r.gate({"w", "l", "sizes"}, Gate::eq(3.0));
  r.gate({"w", "l", "verdict"}, Gate::eq("proven"));
  r.gate({"w", "l", "honest"}, Gate::eq(true));
  r.gate({"w", "l", "jobs_per_sec"}, Gate::above(0.0));
  r.gate({"w", "l", "health_ms"}, Gate::below(1000.0));
  r.add({"w", "l", "speedup"}, 3.0, "x");  // bounds are inclusive
  r.add({"w", "l", "p99_ms"}, 250.0, "ms");
  r.add({"w", "l", "sizes"}, 3.0, "count");
  r.add_label({"w", "l", "verdict"}, "proven");
  r.add_flag({"w", "l", "honest"}, true);
  r.add({"w", "l", "jobs_per_sec"}, 1e-9, "1/s");
  r.add({"w", "l", "health_ms"}, 999.9, "ms");
  r.add({"w", "l", "ungated"}, -7.5, "ms");
  return r;
}

TEST(BenchReport, PassingGatesOnNumbersLabelsAndFlags) {
  EXPECT_TRUE(check(passing_report()).empty());
}

TEST(BenchReport, EachOpRejectsItsViolation) {
  const struct {
    Gate gate;
    JsonValue value;
  } cases[] = {
      {Gate::min(3.0), JsonValue(2.99)},
      {Gate::max(250.0), JsonValue(250.01)},
      {Gate::eq(3.0), JsonValue(4.0)},
      {Gate::eq("proven"), JsonValue(std::string("exhausted"))},
      {Gate::eq(true), JsonValue(false)},
      {Gate::eq(true), JsonValue(std::string("true"))},
      {Gate::above(0.0), JsonValue(0.0)},
      {Gate::below(1000.0), JsonValue(1000.0)},
      {Gate::min(1.0), JsonValue(std::string("ok"))},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(write_json(c.gate.to_json()) + " on " + write_json(c.value));
    Report r("unit");
    r.gate({"w", "l", "m"}, c.gate);
    if (c.value.is_number()) r.add({"w", "l", "m"}, c.value.as_number(), "x");
    if (c.value.is_string()) r.add_label({"w", "l", "m"}, c.value.as_string());
    if (c.value.is_bool()) r.add_flag({"w", "l", "m"}, c.value.as_bool());
    only_problem(r, "w / l / m");
  }
}

TEST(BenchReport, RejectsNonFiniteValues) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    Report r("unit");
    r.add({"w", "l", "ungated"}, v, "ms");
    EXPECT_NE(only_problem(r, "w / l / ungated").find("not a finite"),
              std::string::npos);
    // A gate that NaN would slip past (every comparison is false).
    Report gated("unit");
    gated.gate({"w", "l", "m"}, Gate::max(1.0));
    gated.add({"w", "l", "m"}, v, "ms");
    only_problem(gated, "w / l / m");
  }
}

TEST(BenchReport, RejectsAMissingGatedRow) {
  Report r = passing_report();
  r.gate({"w2", "l", "speedup"}, Gate::min(3.0));
  EXPECT_NE(only_problem(r, "w2 / l / speedup").find("missing"),
            std::string::npos);
  // A file whose row lost its gate is caught against the declaration too.
  Report declared = passing_report();
  JsonValue::Object doc = declared.to_json().as_object();
  JsonValue::Array rows = doc.back().second.as_array();
  JsonValue::Object first = rows.front().as_object();
  first.pop_back();  // "gate"
  rows.front() = JsonValue(first);
  doc.back().second = JsonValue(rows);
  const std::vector<std::string> problems =
      check_report(JsonValue(doc), declared.gates());
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("does not carry its gate"), std::string::npos);
}

TEST(BenchReport, RoundTripsThroughWriteAndParse) {
  const JsonValue doc = passing_report().to_json();
  const std::string text = write_json(doc);
  const JsonValue parsed = parse_json(text);
  EXPECT_EQ(write_json(parsed), text);
  EXPECT_TRUE(check_report(parsed, passing_report().gates()).empty());
  ASSERT_NE(parsed.find("schema_version"), nullptr);
  EXPECT_EQ(parsed.find("schema_version")->as_number(), 2.0);
  const JsonValue& row = parsed.find("rows")->as_array().front();
  EXPECT_EQ(row.find("workload")->as_string(), "w");
  EXPECT_EQ(row.find("unit")->as_string(), "x");
  EXPECT_EQ(write_json(*row.find("gate")), R"({"op":"min","bound":3})");
}

TEST(BenchReport, EmitWritesAndExitsNonZeroNamingTheRow) {
  const std::string path = ::testing::TempDir() + "BENCH_unit.json";
  ::unsetenv("RTV_BENCH_JSON");
  passing_report().emit(path);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_TRUE(check_report(parse_json(text.str()), passing_report().gates())
                  .empty());

  Report failing = passing_report();
  failing.gate({"w", "l", "ungated"}, Gate::min(0.0));
  EXPECT_EXIT(failing.emit(path), ::testing::ExitedWithCode(1),
              "w / l / ungated: value -7.5 fails min 0");
}

}  // namespace
}  // namespace rtv::bench
