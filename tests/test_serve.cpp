// The serve subsystem: wire codec, content-addressed design cache, and the
// Server's concurrent job semantics — determinism under parallel clients,
// per-job budget isolation (one degraded job never corrupts a neighbour),
// cache eviction correctness under a tiny byte cap, and graceful shutdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/design_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rtv {
namespace {

using serve::DesignCache;
using serve::ErrorCode;
using serve::JobRequest;
using serve::JobType;
using serve::Server;
using serve::ServeOptions;

std::string toggle_text() { return write_rnl(testing::toggle_circuit()); }

/// Builds a request frame; design/options are spliced in pre-rendered.
std::string frame(const std::string& id, const std::string& type,
                  const std::string& extra = "") {
  std::string f = "{\"rtv_serve\":1,\"id\":\"" + id + "\",\"type\":\"" +
                  type + "\"";
  if (!extra.empty()) f += "," + extra;
  f += "}";
  return f;
}

std::string design_field(const std::string& rnl) {
  return "\"design\":\"" + json_escape(rnl) + "\"";
}

JsonValue parse_response(const std::string& line) {
  JsonValue doc = parse_json(line);
  EXPECT_EQ(serve::validate_response(doc), "") << line;
  return doc;
}

bool response_ok(const JsonValue& doc) {
  return doc.find("ok") != nullptr && doc.find("ok")->as_bool();
}

std::string error_code(const JsonValue& doc) {
  const JsonValue* error = doc.find("error");
  return error == nullptr ? "" : error->find("code")->as_string();
}

std::string verdict_of(const JsonValue& doc) {
  return doc.find("stats")->find("verdict")->as_string();
}

// ---------------------------------------------------------------------------
// Protocol codec

TEST(ServeProtocol, RejectsMalformedFrames) {
  const auto expect_bad = [](const std::string& text) {
    try {
      serve::parse_request(parse_json(text));
      FAIL() << "accepted: " << text;
    } catch (const serve::ProtocolError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << text;
    }
  };
  expect_bad("[1,2]");                                  // not an object
  expect_bad("{\"id\":\"a\",\"type\":\"lint\"}");       // missing version
  expect_bad("{\"rtv_serve\":99,\"id\":\"a\",\"type\":\"lint\"}");  // wrong
  expect_bad(frame("", "lint", design_field("x")));     // empty id
  expect_bad(frame("a", "frobnicate"));                 // unknown type
  expect_bad(frame("a", "lint"));                       // missing design
  expect_bad(frame("a", "lint",
                   "\"design\":\"x\",\"design_id\":\"y\""));  // both
  expect_bad(frame("a", "lint",
                   design_field("x") + ",\"design_b\":\"y\""));  // stray b
  expect_bad(frame("a", "stats", design_field("x")));   // design on stats
  expect_bad(frame("a", "cls-equivalence", design_field("x")));  // no b
  expect_bad(frame("a", "lint",
                   design_field("x") + ",\"budget\":{\"time_ms\":-1}"));
  expect_bad(frame("a", "lint", design_field("x") + ",\"options\":3"));
}

TEST(ServeProtocol, ParsesACompleteRequest) {
  const JobRequest r = serve::parse_request(parse_json(frame(
      "job-1", "faultsim",
      design_field("rnl 1\n") +
          ",\"budget\":{\"time_ms\":250,\"step_quota\":10}," +
          "\"options\":{\"tests\":4}")));
  EXPECT_EQ(r.id, "job-1");
  EXPECT_EQ(r.type, JobType::kFaultSim);
  ASSERT_TRUE(r.design_text.has_value());
  ASSERT_TRUE(r.budget.has_value());
  EXPECT_EQ(r.budget->time_ms, 250u);
  EXPECT_EQ(r.budget->step_quota, 10u);
  ASSERT_TRUE(r.options.is_object());
}

TEST(ServeProtocol, RenderedFramesValidate) {
  serve::JobStatsWire stats;
  stats.verdict = "proven";
  stats.governed = true;
  const std::string ok = serve::render_response(
      "a", JobType::kValidate, "0123456789abcdef",
      JsonValue(JsonValue::Object{}), stats);
  EXPECT_EQ(serve::validate_response(parse_json(ok)), "");
  const std::string err =
      serve::render_error("", ErrorCode::kParseError, "bad design");
  EXPECT_EQ(serve::validate_response(parse_json(err)), "");
  // And the validator actually rejects: wrong verdict label.
  EXPECT_NE(serve::validate_response(parse_json(
                "{\"rtv_serve\":3,\"id\":\"a\",\"ok\":true,"
                "\"type\":\"lint\",\"result\":{},\"stats\":{"
                "\"queue_ms\":0,\"run_ms\":0,\"cache_hit\":false,"
                "\"verdict\":\"perhaps\"}}")),
            "");
}

// ---------------------------------------------------------------------------
// Design cache

TEST(DesignCache, ContentAddressingDeduplicatesSpellings) {
  DesignCache cache(std::size_t{1} << 20);
  bool hit = true;
  const auto a = cache.intern(toggle_text(), &hit);
  EXPECT_FALSE(hit);
  // Same text again: alias fast-path, no parse.
  const auto b = cache.intern(toggle_text(), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());
  // Different spelling (comment + blank line), same canonical design: one
  // entry, one id — but the parse had to run, so not a cache hit.
  const auto c = cache.intern("# a comment\n\n" + toggle_text(), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  // find() by the content id works and counts a hit.
  EXPECT_EQ(cache.find(a->design_id()).get(), a.get());
  EXPECT_EQ(cache.find("no-such-id"), nullptr);
}

TEST(DesignCache, EvictsLruUnderByteCapAndStaysCorrect) {
  Rng rng(7);
  std::vector<std::string> designs;
  for (int i = 0; i < 12; ++i) {
    RandomCircuitOptions opt;
    opt.num_gates = 12 + i;  // distinct designs
    designs.push_back(write_rnl(random_netlist(opt, rng)));
  }
  // Cap sized for only a couple of residents (entry sizes are an estimate,
  // so measure one instead of hard-coding).
  const std::size_t one_entry =
      DesignCache(std::size_t{1} << 20).intern(designs[0])->bytes();
  DesignCache cache(one_entry * 5 / 2);
  std::vector<std::string> ids;
  for (const std::string& text : designs) {
    const auto entry = cache.intern(text);
    // The entry handed out is always usable, evicted or not.
    EXPECT_EQ(DesignCache::content_hash(entry->canonical_text()),
              entry->design_id());
    ids.push_back(entry->design_id());
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.byte_cap);
  // Early ids were evicted; re-interning the text rebuilds the SAME id
  // (content addressing), so a client never sees a stale mapping.
  EXPECT_EQ(cache.find(ids.front()), nullptr);
  EXPECT_EQ(cache.intern(designs.front())->design_id(), ids.front());
}

TEST(DesignCache, ZeroCapDisablesRetention) {
  DesignCache cache(0);
  const auto entry = cache.intern(toggle_text());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.find(entry->design_id()), nullptr);
  bool hit = true;
  cache.intern(toggle_text(), &hit);
  EXPECT_FALSE(hit);  // nothing retained, the parse re-ran
}

// ---------------------------------------------------------------------------
// Server job semantics (synchronous handle_line path)

ServeOptions small_server_options() {
  ServeOptions options;
  options.threads = 2;
  return options;
}

TEST(Server, EveryJobTypeAnswersOverTheSameEntryPoint) {
  Server server(small_server_options());
  const std::string design = design_field(toggle_text());

  const JsonValue lint =
      parse_response(server.handle_line(frame("l", "lint", design)));
  EXPECT_TRUE(response_ok(lint));
  // toggle's latch can never leave X, so semantic lint flags RTV301 — the
  // report is structurally sound but not clean.
  EXPECT_FALSE(lint.find("result")->find("clean")->as_bool());
  EXPECT_EQ(lint.find("result")->find("errors")->as_number(), 0.0);
  EXPECT_EQ(verdict_of(lint), "none");
  const std::string design_id = lint.find("design_id")->as_string();

  // Reuse by design_id: cache hit, identical result.
  const JsonValue lint2 = parse_response(server.handle_line(
      frame("l2", "lint", "\"design_id\":\"" + design_id + "\"")));
  EXPECT_TRUE(response_ok(lint2));
  EXPECT_TRUE(lint2.find("stats")->find("cache_hit")->as_bool());

  const JsonValue validate =
      parse_response(server.handle_line(frame("v", "validate", design)));
  EXPECT_TRUE(response_ok(validate));
  EXPECT_EQ(verdict_of(validate), "proven");
  EXPECT_TRUE(validate.find("result")->find("theorems_hold")->as_bool());

  const JsonValue faultsim = parse_response(server.handle_line(frame(
      "f", "faultsim", design + ",\"options\":{\"tests\":8,\"cycles\":8}")));
  EXPECT_TRUE(response_ok(faultsim));
  EXPECT_EQ(verdict_of(faultsim), "bounded");
  EXPECT_TRUE(faultsim.find("result")->find("complete")->as_bool());

  const JsonValue equiv = parse_response(server.handle_line(frame(
      "e", "cls-equivalence",
      design_field(write_rnl(figure1_original())) + ",\"design_b\":\"" +
          json_escape(write_rnl(figure1_retimed())) + "\"")));
  EXPECT_TRUE(response_ok(equiv));
  EXPECT_TRUE(equiv.find("result")->find("equivalent")->as_bool());
  EXPECT_EQ(verdict_of(equiv), "proven");

  const JsonValue sim = parse_response(server.handle_line(frame(
      "s", "simulate", design + ",\"options\":{\"inputs\":\"1.1.0\"}")));
  EXPECT_TRUE(response_ok(sim));
  EXPECT_EQ(sim.find("result")->find("responses")->as_array().size(), 1u);

  const JsonValue stats =
      parse_response(server.handle_line(frame("st", "stats")));
  EXPECT_TRUE(response_ok(stats));
  EXPECT_GE(stats.find("result")->find("jobs_done")->as_number(), 6.0);
}

TEST(Server, SemanticLintAndStaticProofRoundTripOverTheWire) {
  Server server(small_server_options());
  const std::string design = design_field(toggle_text());

  // Semantic lint: the RTV301 finding and the fixpoint statistics travel
  // the wire intact.
  const JsonValue lint =
      parse_response(server.handle_line(frame("sl", "lint", design)));
  ASSERT_TRUE(response_ok(lint));
  const JsonValue* result = lint.find("result");
  EXPECT_FALSE(result->find("clean")->as_bool());
  EXPECT_EQ(result->find("warnings")->as_number(), 1.0);
  const auto& diags = result->find("diagnostics")->as_array();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].find("code")->as_string(), "RTV301");
  EXPECT_EQ(diags[0].find("severity")->as_string(), "warning");
  EXPECT_EQ(diags[0].find("node")->as_string(), "t");
  const JsonValue* dataflow = result->find("dataflow");
  ASSERT_NE(dataflow, nullptr);
  EXPECT_GT(dataflow->find("ports")->as_number(), 0.0);
  EXPECT_GT(dataflow->find("iterations")->as_number(), 0.0);
  EXPECT_GT(dataflow->find("updates")->as_number(), 0.0);
  EXPECT_EQ(dataflow->find("table_fallbacks")->as_number(), 0.0);

  // semantic:false restores the structural-only verdict — and no
  // dataflow key, since the fixpoint never ran.
  const JsonValue off = parse_response(server.handle_line(
      frame("sl-off", "lint", design + ",\"options\":{\"semantic\":false}")));
  ASSERT_TRUE(response_ok(off));
  EXPECT_TRUE(off.find("result")->find("clean")->as_bool());
  EXPECT_EQ(off.find("result")->find("dataflow"), nullptr);

  // The static fixpoint proof decides toggle-vs-toggle with no engine run.
  const JsonValue equiv = parse_response(server.handle_line(
      frame("se", "cls-equivalence",
            design + ",\"design_b\":\"" + json_escape(toggle_text()) + "\"")));
  ASSERT_TRUE(response_ok(equiv));
  EXPECT_TRUE(equiv.find("result")->find("equivalent")->as_bool());
  EXPECT_EQ(equiv.find("result")->find("decided_by")->as_string(), "static");
  EXPECT_EQ(verdict_of(equiv), "proven");

  // The explicit static backend answers honestly when it cannot decide:
  // the buffered copy defeats both the fixpoint and the certificate.
  const std::string pipeline = write_rnl(testing::inverter_pipeline());
  const std::string buffered = write_rnl(
      testing::with_output_buffer(testing::inverter_pipeline()));
  const JsonValue und = parse_response(server.handle_line(frame(
      "su", "cls-equivalence",
      design_field(pipeline) + ",\"design_b\":\"" + json_escape(buffered) +
          "\",\"options\":{\"backend\":\"static\"}")));
  ASSERT_TRUE(response_ok(und));
  // kExhausted contract: "equivalent" only means no difference observed.
  EXPECT_TRUE(und.find("result")->find("equivalent")->as_bool());
  EXPECT_EQ(und.find("result")->find("decided_by")->as_string(), "static");
  EXPECT_EQ(verdict_of(und), "exhausted");
}

TEST(Server, ClsEquivalenceBackendSelectionRoundTrips) {
  Server server(small_server_options());
  // The buffer keeps the per-move certificate from deciding the pair, so
  // the selected backend does.
  const std::string pair =
      design_field(write_rnl(figure1_original())) + ",\"design_b\":\"" +
      json_escape(write_rnl(testing::with_output_buffer(figure1_retimed()))) +
      "\"";
  for (const std::string backend : {"explicit", "bdd", "sat", "portfolio"}) {
    const JsonValue r = parse_response(server.handle_line(
        frame("be-" + backend, "cls-equivalence",
              pair + ",\"options\":{\"backend\":\"" + backend + "\"}")));
    EXPECT_TRUE(response_ok(r)) << backend;
    const JsonValue* result = r.find("result");
    EXPECT_TRUE(result->find("equivalent")->as_bool()) << backend;
    const std::string decided = result->find("decided_by")->as_string();
    if (backend == "portfolio") {
      // Fig 1 is narrow: the portfolio's explicit stage decides it, and
      // the reason says the portfolio decided.
      EXPECT_EQ(decided, "explicit");
      EXPECT_EQ(
          result->find("decided_reason")->as_string().rfind("portfolio: ", 0),
          0u);
    } else {
      EXPECT_EQ(decided, backend);
      EXPECT_FALSE(result->find("decided_reason")->as_string().empty());
    }
  }

  // Seven inputs skip the explicit stage, and the buffer the certificate:
  // the race winner is timing-dependent but must be a real engine.
  const std::string wide = write_rnl(testing::wide_pipeline());
  const std::string wide_b =
      write_rnl(testing::with_output_buffer(testing::wide_pipeline()));
  const JsonValue raced = parse_response(server.handle_line(
      frame("be-wide", "cls-equivalence",
            design_field(wide) + ",\"design_b\":\"" + json_escape(wide_b) +
                "\",\"options\":{\"backend\":\"portfolio\"}")));
  ASSERT_TRUE(response_ok(raced));
  const JsonValue* raced_result = raced.find("result");
  EXPECT_TRUE(raced_result->find("equivalent")->as_bool());
  const std::string winner = raced_result->find("decided_by")->as_string();
  EXPECT_TRUE(winner == "bdd" || winner == "sat") << winner;
  EXPECT_EQ(
      raced_result->find("decided_reason")->as_string().rfind("portfolio: ", 0),
      0u);

  // An unknown backend gets the standard bad-request envelope, same as any
  // other unknown option value.
  const JsonValue bad = parse_response(server.handle_line(
      frame("be-bad", "cls-equivalence",
            pair + ",\"options\":{\"backend\":\"quantum\"}")));
  EXPECT_FALSE(response_ok(bad));
  EXPECT_EQ(error_code(bad), "bad_request");
}

TEST(Server, ErrorEnvelopesCarryTheDocumentedCodes) {
  Server server(small_server_options());
  // Not JSON at all.
  EXPECT_EQ(error_code(parse_response(server.handle_line("not json"))),
            "bad_request");
  // A design that does not parse.
  EXPECT_EQ(error_code(parse_response(server.handle_line(
                frame("p", "lint", design_field("rnl 1\nnode ?? what\n"))))),
            "parse_error");
  // Unknown design id.
  EXPECT_EQ(error_code(parse_response(server.handle_line(frame(
                "n", "lint", "\"design_id\":\"ffffffffffffffff\"")))),
            "design_not_found");
  // Unknown option key.
  EXPECT_EQ(error_code(parse_response(server.handle_line(
                frame("o", "lint",
                      design_field(toggle_text()) +
                          ",\"options\":{\"max_kay\":3}")))),
            "bad_request");
  // Precondition violation inside a handler (wrong input width).
  EXPECT_EQ(error_code(parse_response(server.handle_line(
                frame("w", "simulate",
                      design_field(toggle_text()) +
                          ",\"options\":{\"inputs\":\"101.010\"}")))),
            "invalid_argument");
}

TEST(Server, UnknownCellKindIsAParseErrorWithItsLine) {
  // The error-envelope example in docs/serve.md quotes this message.
  Server server(small_server_options());
  const JsonValue doc = parse_response(server.handle_line(frame(
      "job-43", "lint", design_field("rnl 1\nnode a input\nnode g xr 2\n"))));
  EXPECT_EQ(error_code(doc), "parse_error");
  EXPECT_EQ(doc.find("error")->find("message")->as_string(),
            "rnl line 3: unknown cell kind: 'xr'");
}

TEST(Server, OutOfBoundsTableHeaderIsAParseErrorWithItsLine) {
  // Used to surface as a bare invalid_argument (64 inputs) or as internal
  // (40 inputs: a 2^40-row reserve).
  Server server(small_server_options());
  for (const char* inputs : {"64", "40"}) {
    const JsonValue doc = parse_response(server.handle_line(frame(
        "job-44", "lint",
        design_field("rnl 1\ntable t " + std::string(inputs) +
                     " 1\nrow 0 0\n"))));
    EXPECT_EQ(error_code(doc), "parse_error");
    EXPECT_EQ(doc.find("error")->find("message")->as_string(),
              "rnl line 2: table needs 0..16 inputs and 1..32 outputs");
  }
}

// ---------------------------------------------------------------------------
// Concurrency semantics

TEST(Server, ParallelMixedClientsGetDeterministicVerdicts) {
  // Serial reference on a single-threaded server...
  ServeOptions serial;
  serial.threads = 1;
  Server reference(serial);
  const std::string design = design_field(toggle_text());
  const auto requests = [&](const std::string& tag) {
    std::vector<std::string> r;
    r.push_back(frame(tag + "-l", "lint", design));
    r.push_back(frame(tag + "-v", "validate", design));
    r.push_back(frame(tag + "-f", "faultsim",
                      design + ",\"options\":{\"tests\":8,\"cycles\":8,"
                               "\"seed\":3}"));
    r.push_back(frame(tag + "-s", "simulate",
                      design + ",\"options\":{\"inputs\":\"1.0.1.1\"}"));
    return r;
  };
  std::vector<std::string> expected;
  for (const std::string& req : requests("x")) {
    const JsonValue doc = parse_response(reference.handle_line(req));
    ASSERT_TRUE(response_ok(doc)) << req;
    expected.push_back(write_json(*doc.find("result")));
  }

  // ...must match every client's results on a parallel server, with all
  // clients hammering it at once.
  ServeOptions parallel;
  parallel.threads = 4;
  parallel.max_inflight = 8;
  Server server(parallel);
  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const std::string& req : requests("c" + std::to_string(c))) {
        const JsonValue doc = parse_json(server.handle_line(req));
        results[c].push_back(
            doc.find("result") != nullptr ? write_json(*doc.find("result"))
                                          : doc.find("error")->as_object()
                                                .front()
                                                .second.as_string());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[c], expected) << "client " << c;
  }
  // The fleet shared one cache entry for the design.
  EXPECT_EQ(server.stats().cache.entries, 1u);
}

TEST(Server, BudgetTrippedJobDegradesWhileNeighboursComplete) {
  ServeOptions options;
  options.threads = 4;
  Server server(options);
  const std::string design = design_field(toggle_text());

  // One job with a 1-step quota must degrade; unbudgeted twins must not.
  std::vector<std::string> responses(5);
  std::vector<std::thread> clients;
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&, i] {
      const std::string extra =
          i == 0 ? design + ",\"budget\":{\"step_quota\":1}" : design;
      responses[i] = server.handle_line(
          frame("b" + std::to_string(i), "validate", extra));
    });
  }
  for (std::thread& t : clients) t.join();

  const JsonValue tripped = parse_response(responses[0]);
  ASSERT_TRUE(response_ok(tripped));
  EXPECT_EQ(verdict_of(tripped), "exhausted");
  const JsonValue* usage = tripped.find("stats")->find("usage");
  ASSERT_NE(usage, nullptr);
  EXPECT_TRUE(usage->find("exhausted")->as_bool());
  EXPECT_TRUE(usage->find("blown")->is_string());
  for (int i = 1; i < 5; ++i) {
    const JsonValue doc = parse_response(responses[i]);
    ASSERT_TRUE(response_ok(doc)) << responses[i];
    EXPECT_EQ(verdict_of(doc), "proven") << responses[i];
    EXPECT_TRUE(doc.find("result")->find("theorems_hold")->as_bool());
  }
}

TEST(Server, InjectedFaultYieldsLabeledDegradedResponse) {
  // The robustness harness through the service path: trip the first
  // handler checkpoint, the job reports exhausted+injected instead of
  // crashing. The admission path owns checkpoints 1 ("serve.admit") and 2
  // ("serve.start"), so the first budget checkpoint is the third.
  Server server(small_server_options());
  fault_inject::arm(3);
  const std::string response = server.handle_line(
      frame("inj", "validate", design_field(toggle_text())));
  fault_inject::disarm();
  const JsonValue doc = parse_response(response);
  ASSERT_TRUE(response_ok(doc));
  EXPECT_EQ(verdict_of(doc), "exhausted");
  EXPECT_EQ(doc.find("stats")->find("usage")->find("blown")->as_string(),
            "fault injection");
}

TEST(Server, CounterInvariantHoldsAndRejectionsAreNotAccepted) {
  // Every frame lands in exactly one bucket. Admitted jobs satisfy
  // accepted == done + failed at quiescence; frames refused at the door
  // (malformed, shed) count only as rejected and never inflate accepted.
  Server server(small_server_options());
  const std::string design = design_field(toggle_text());

  // Two successes, one admitted failure (handler precondition violation).
  EXPECT_TRUE(response_ok(
      parse_response(server.handle_line(frame("ok1", "lint", design)))));
  EXPECT_TRUE(response_ok(
      parse_response(server.handle_line(frame("ok2", "validate", design)))));
  EXPECT_EQ(error_code(parse_response(server.handle_line(
                frame("bad-arg", "simulate",
                      design + ",\"options\":{\"inputs\":\"101.010\"}")))),
            "invalid_argument");

  // Never admitted: a malformed frame and a synthetic admission shed.
  EXPECT_EQ(error_code(parse_response(server.handle_line("not json"))),
            "bad_request");
  fault_inject::arm(1);  // checkpoint 1 is "serve.admit"
  const JsonValue shed =
      parse_response(server.handle_line(frame("shed", "lint", design)));
  fault_inject::disarm();
  EXPECT_EQ(error_code(shed), "overloaded");
  ASSERT_NE(shed.find("error")->find("retry_after_ms"), nullptr);

  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.jobs_accepted, 3u);
  EXPECT_EQ(stats.jobs_done, 2u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_rejected, 2u);
  EXPECT_EQ(stats.jobs_shed, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.jobs_accepted, stats.jobs_done + stats.jobs_failed);
}

TEST(Server, TinyCacheEvictsButNeverCorruptsResults) {
  ServeOptions options;
  options.threads = 2;
  {
    // A couple of residents at most: measure one entry rather than
    // hard-coding the size estimate.
    RandomCircuitOptions gen;
    gen.num_gates = 10;
    Rng fresh(100);
    options.cache_bytes =
        DesignCache(std::size_t{1} << 20)
            .intern(write_rnl(random_netlist(gen, fresh)))
            ->bytes() *
        5 / 2;
  }
  Server server(options);
  Rng rng(11);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      RandomCircuitOptions gen;
      gen.num_gates = 10 + i;
      Rng fresh(100 + i);  // same designs in both rounds
      const std::string text = write_rnl(random_netlist(gen, fresh));
      const JsonValue doc = parse_response(server.handle_line(
          frame(indexed_name(indexed_name("r", round) + "-", i),
                "lint", design_field(text))));
      ASSERT_TRUE(response_ok(doc));
      // Content addressing survives eviction: the id is a pure function
      // of the design, not of cache state.
      EXPECT_EQ(doc.find("design_id")->as_string(),
                DesignCache::content_hash(text));
    }
  }
  const auto stats = server.stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.bytes, stats.cache.byte_cap);
  (void)rng;
}

TEST(Server, StreamModeDrainsOnShutdown) {
  std::istringstream in(
      frame("1", "lint", design_field(toggle_text())) + "\n" +
      frame("2", "simulate", design_field(toggle_text()) +
                                 ",\"options\":{\"inputs\":\"1.1\"}") +
      "\n" + frame("3", "shutdown") + "\n" +
      frame("4", "lint", design_field(toggle_text())) + "\n");
  std::ostringstream out;
  ServeOptions options;
  options.threads = 2;
  Server server(options);
  server.serve_stream(in, out);
  EXPECT_TRUE(server.shutting_down());

  // Every request read before shutdown got exactly one response; the
  // post-shutdown line was never read.
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(lines, line)) {
    const JsonValue doc = parse_response(line);
    ids.push_back(doc.find("id")->as_string());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"1", "2", "3"}));
}

// ---------------------------------------------------------------------------
// ThreadPool task mode (the pool extension the server runs on)

TEST(ThreadPoolTasks, SubmitRunsEverythingAcrossWorkers) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lk(m);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lk(m);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(30),
                          [&] { return done.load() == kTasks; }));
}

TEST(ThreadPoolTasks, TasksAndParallelForCoexist) {
  ThreadPool pool(4);
  std::atomic<int> task_done{0};
  std::atomic<long> sum{0};
  pool.submit([&] { task_done.fetch_add(1); });
  pool.parallel_for(1000, 64, [&](std::size_t b, std::size_t e) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    sum.fetch_add(local);
  });
  pool.submit([&] { task_done.fetch_add(1); });
  // parallel_for's own correctness is the main assertion; tasks drain at
  // the workers' next idle transition.
  EXPECT_EQ(sum.load(), 499500L);
  for (int spins = 0; task_done.load() != 2 && spins < 1000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(task_done.load(), 2);
}

TEST(ThreadPoolTasks, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace rtv
