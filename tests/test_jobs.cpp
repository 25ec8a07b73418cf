// The job layer shared by `rtv serve` and the `rtv` subcommands: the same
// options object decodes the same way and encodes the same result on both
// paths, every option a job accepts is checked by kind, and the budget
// mapping clamps to a deadline.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "gen/datapath.hpp"
#include "gen/paper_circuits.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/jobs.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"

namespace rtv {
namespace {

using serve::JobType;

std::string request(const std::string& type, const std::string& design,
                    const std::string& options,
                    const std::string& design_b = "") {
  std::string f = "{\"rtv_serve\":3,\"id\":\"j\",\"type\":\"" + type +
                  "\",\"design\":\"" + json_escape(design) + "\"";
  if (!design_b.empty()) {
    f += ",\"design_b\":\"" + json_escape(design_b) + "\"";
  }
  return f + ",\"options\":" + options + "}";
}

/// The result object the server answers `type` with, and the one the job
/// layer produces in-process (the CLI's path) for the same options.
struct BothPaths {
  JsonValue served;
  serve::JobOutput direct;
};

BothPaths run_both(JobType type, const Netlist& a, const std::string& options,
                   const Netlist* b = nullptr) {
  serve::Server server;
  const JsonValue response = parse_json(server.handle_line(
      request(to_string(type), write_rnl(a), options,
              b != nullptr ? write_rnl(*b) : "")));
  EXPECT_TRUE(response.find("ok")->as_bool()) << write_json(response);
  BothPaths out;
  out.served = *response.find("result");

  serve::JobDesigns designs;
  designs.a = &a;
  designs.b = b;
  if (const JsonValue* id = out.served.find("design_b_id")) {
    designs.b_id = id->as_string();
  }
  out.direct = serve::run_job(type, parse_json(options), designs, {});
  return out;
}

TEST(Jobs, ServeAndInProcessRunsEncodeTheSameResult) {
  const Netlist toggle = testing::toggle_circuit();
  const Netlist f1 = figure1_original();
  const Netlist f1r = figure1_retimed();
  const struct {
    JobType type;
    const Netlist* a;
    const char* options;
    const Netlist* b;
  } cases[] = {
      {JobType::kLint, &toggle, "{\"semantic\":true}", nullptr},
      {JobType::kValidate, &f1, "{\"objective\":\"min-period\"}", nullptr},
      {JobType::kFaultSim, &toggle, "{\"tests\":8,\"cycles\":8,\"seed\":3}",
       nullptr},
      {JobType::kClsEquivalence, &f1, "{\"backend\":\"explicit\"}", &f1r},
      {JobType::kSimulate, &toggle, "{\"inputs\":\"1.1.0,0.1\"}", nullptr},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.type));
    const BothPaths both = run_both(c.type, *c.a, c.options, c.b);
    EXPECT_EQ(write_json(both.served), write_json(both.direct.result));
  }
}

TEST(Jobs, ValidateTakesEveryEquivalenceOption) {
  // Before the job layer, validate jobs rejected the backend knobs that
  // cls-equivalence jobs accepted. The design is one the per-move
  // certificate cannot decide, so the selected backend does.
  const BothPaths both = run_both(
      JobType::kValidate, testing::delayed_constant(),
      "{\"backend\":\"bdd\",\"bdd_gc\":true,\"bdd_reorder\":\"pressure\","
      "\"max_pairs\":1000}");
  EXPECT_TRUE(both.served.find("theorems_hold")->as_bool());
  EXPECT_EQ(both.served.find("decided_by")->as_string(), "bdd");
  EXPECT_EQ(both.direct.verdict, "proven");
}

TEST(Jobs, ValidateIsDecidedByThePerMoveCertificate) {
  // Every move of Figure 1's retiming crosses an all-X-preserving element:
  // the certificate decides before any backend runs, on both paths.
  const BothPaths both = run_both(JobType::kValidate, figure1_original(),
                                  "{\"backend\":\"bdd\"}");
  EXPECT_EQ(write_json(both.served), write_json(both.direct.result));
  EXPECT_EQ(both.served.find("decided_by")->as_string(), "static");
  const std::string reason = both.served.find("decided_reason")->as_string();
  EXPECT_EQ(reason.rfind("per-move certificate: ", 0), 0u) << reason;
  EXPECT_TRUE(both.served.find("cls_exhaustive")->as_bool());
  EXPECT_EQ(both.direct.verdict, "proven");

  const Netlist f1 = figure1_original();
  serve::JobDesigns designs;
  designs.a = &f1;
  serve::JobEnv env;
  env.want_text = true;
  const std::string text =
      serve::run_job(JobType::kValidate, JsonValue(), designs, env).text;
  // The text report's decided: line and the result carry the same reason.
  EXPECT_NE(text.find("decided:  static (" + reason + ")"), std::string::npos)
      << text;
}

TEST(Jobs, ValidateReportsTheQuotientSizes) {
  // pipelined_adder(4, 2) and its min-area retiming both reduce to 32
  // states; the result and the text report's stg: line say so.
  const Netlist adder = pipelined_adder(4, 2);
  const BothPaths both = run_both(JobType::kValidate, adder, "{}");
  EXPECT_EQ(write_json(both.served), write_json(both.direct.result));
  EXPECT_TRUE(both.served.find("stg_checked")->as_bool());
  EXPECT_EQ(both.served.find("c_quotient_states")->as_number(), 32.0);
  EXPECT_EQ(both.served.find("d_quotient_states")->as_number(), 32.0);

  serve::JobDesigns designs;
  designs.a = &adder;
  serve::JobEnv env;
  env.want_text = true;
  const std::string text =
      serve::run_job(JobType::kValidate, JsonValue(), designs, env).text;
  EXPECT_NE(text.find("; quotients C 32, D 32 states\n"), std::string::npos)
      << text;
}

TEST(Jobs, LintPlanOptionRunsThePlanAnalysis) {
  const BothPaths both = run_both(
      JobType::kLint, figure1_original(),
      "{\"plan\":\"{\\\"moves\\\":[{\\\"element\\\":\\\"J1\\\","
      "\\\"direction\\\":\\\"forward\\\"}]}\"}");
  const JsonValue* plan = both.served.find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->find("feasible")->as_bool());
  EXPECT_EQ(plan->find("k")->as_number(), 1.0);
  const JsonValue& unsafe = both.served.find("diagnostics")->as_array()[0];
  EXPECT_EQ(unsafe.find("code")->as_string(), "RTV201");
  EXPECT_EQ(unsafe.find("move")->as_number(), 0.0);
}

TEST(Jobs, UnknownIllTypedAndOutOfRangeOptionsAreBadRequests) {
  const Netlist toggle = testing::toggle_circuit();
  serve::JobDesigns designs;
  designs.a = &toggle;
  designs.b = &toggle;
  const auto expect_bad = [&](JobType type, const std::string& options) {
    try {
      serve::run_job(type, parse_json(options), designs, {});
      ADD_FAILURE() << "accepted " << options;
    } catch (const serve::ProtocolError& e) {
      EXPECT_EQ(e.code(), serve::ErrorCode::kBadRequest) << options;
    }
  };
  expect_bad(JobType::kLint, "{\"max_kay\":3}");
  expect_bad(JobType::kLint, "{\"semantic\":\"yes\"}");
  expect_bad(JobType::kFaultSim, "{\"tests\":-1}");
  expect_bad(JobType::kFaultSim, "{\"cycles\":1.5}");
  expect_bad(JobType::kClsEquivalence, "{\"random_length\":1e12}");
  expect_bad(JobType::kClsEquivalence, "{\"bdd_reorder\":\"always\"}");
  expect_bad(JobType::kValidate, "{\"objective\":\"min-power\"}");
  // The chaos options exist only on servers built with the test hooks.
  expect_bad(JobType::kSimulate, "{\"chaos_spin_ms\":1}");
}

TEST(Jobs, TextReportIsRenderedOnlyOnRequest) {
  const Netlist f1 = figure1_original();
  serve::JobDesigns designs;
  designs.a = &f1;
  serve::JobEnv env;
  EXPECT_TRUE(serve::run_job(JobType::kValidate, JsonValue(), designs, env)
                  .text.empty());
  env.want_text = true;
  const std::string text =
      serve::run_job(JobType::kValidate, JsonValue(), designs, env).text;
  EXPECT_NE(text.find("verdict:  proven"), std::string::npos) << text;
}

TEST(Jobs, BudgetMapsOntoLimitsAndClampsToTheDeadline) {
  serve::BudgetSpec spec;
  spec.step_quota = 7;
  ResourceLimits limits = serve::job_limits(spec, 500);
  EXPECT_EQ(limits.time_budget_ms, 500u);  // the server default fills in
  EXPECT_EQ(limits.step_quota, 7u);
  EXPECT_EQ(limits.bdd_node_limit, ResourceLimits{}.bdd_node_limit);

  spec.time_ms = 10000;
  spec.node_limit = 1234;
  limits = serve::job_limits(
      spec, 0, std::chrono::steady_clock::now() + std::chrono::seconds(1));
  EXPECT_LE(limits.time_budget_ms, 1000u);  // what is left of the deadline
  EXPECT_EQ(limits.bdd_node_limit, 1234u);
}

}  // namespace
}  // namespace rtv
