#pragma once
// The job layer: one options decoder, one runner and one result encoder per
// design job type (lint, validate, faultsim, cls-equivalence, simulate),
// shared by `rtv serve` and the `rtv` subcommands of the same names.
//
// A job is the "options" object of a request frame plus already-parsed
// designs; it produces the frame's "result" object together with the
// governed verdict and resource usage that go into its "stats". The two
// front ends only move designs and bytes:
//  * the server resolves designs through its DesignCache, runs the job on a
//    pool thread and wraps the output in a response frame;
//  * the CLI reads designs from files, turns its flags into the same
//    options object (option_specs), runs the job in-process and prints the
//    same response frame (--json) or the job's human-readable report.
// Neither interprets an option or builds a result field itself, so an
// option or result field exists on both paths or on neither.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/verify.hpp"
#include "io/json.hpp"
#include "netlist/netlist.hpp"
#include "retime/graph.hpp"
#include "serve/protocol.hpp"
#include "util/budget.hpp"

namespace rtv::serve {

/// The JSON type an option takes on the wire (and the CLI flag form it
/// takes: a bool is a bare `--flag` / `--no-flag`, the others take a value).
enum class OptionKind { kBool, kUint, kString };

struct OptionSpec {
  const char* key;  ///< wire key; the CLI flag is `--key` with '_' -> '-'
  OptionKind kind;
};

/// Every option `type` accepts, in documentation order (empty for the
/// control types).
const std::vector<OptionSpec>& option_specs(JobType type);

/// The options of the CLS-equivalence gate shared by validate,
/// cls-equivalence and the CLI's flow: backend selection plus the engine
/// knobs.
const std::vector<OptionSpec>& verify_option_specs();

/// Decodes the verify options out of an options object; keys outside
/// verify_option_specs() are left to the caller. Throws ProtocolError
/// (bad_request) on an ill-typed or out-of-range value.
VerifyOptions decode_verify_options(const JsonValue& options);

/// Checks `options` against option_specs(type), plus the test-only chaos_*
/// simulate options when `chaos_hooks` is set: an unknown key or a value
/// of the wrong kind throws ProtocolError (bad_request) — a typo'd option
/// silently ignored would look like a job that ran with it.
void check_job_options(JobType type, const JsonValue& options,
                       bool chaos_hooks = false);

/// The designs a job runs on, parsed by the caller.
struct JobDesigns {
  const Netlist* a = nullptr;
  /// RetimeGraph of *a when the caller keeps one warm (validate); built on
  /// demand when null.
  const RetimeGraph* graph = nullptr;
  const Netlist* b = nullptr;  ///< cls-equivalence only
  /// Echoed as result.design_b_id when non-empty (the server's content
  /// hash of *b).
  std::string b_id;
};

/// What a job runs under.
struct JobEnv {
  ResourceLimits limits;
  /// The job's own token, so one cancelled job never leaks into another.
  CancellationToken cancel;
  /// Absolute deadline (serve); the budget's wall clock never runs past it.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Fault-engine worker threads (0 = one per hardware thread). The server
  /// runs every job single-threaded.
  unsigned threads = 1;
  /// Test-only: accept the chaos_* simulate options (ServeOptions).
  bool chaos_hooks = false;
  /// Also render JobOutput::text (the CLI's report); off on the server.
  bool want_text = false;
};

struct JobOutput {
  JsonValue result;                    ///< the response's "result" object
  std::string verdict = "none";        ///< stats.verdict
  std::optional<ResourceUsage> usage;  ///< stats.usage, governed jobs only
  /// Human-readable report when JobEnv::want_text is set; empty for
  /// faultsim, whose report is its JSON.
  std::string text;
};

/// Runs one design job: checks and decodes `options`, runs the engine on
/// `designs` under `env`, and encodes the result. Throws ProtocolError
/// (bad_request) for bad options and the engines' own rtv::Error
/// subclasses otherwise; a blown budget is a degraded verdict, not a throw.
JobOutput run_job(JobType type, const JsonValue& options,
                  const JobDesigns& designs, const JobEnv& env);

/// A request budget as engine limits: time_ms (or `default_time_budget_ms`
/// when the request has none), node_limit (0 keeps the library cap) and
/// step_quota, with the wall clock clamped to what is left before
/// `deadline` — queue wait has already spent part of it.
ResourceLimits job_limits(
    const std::optional<BudgetSpec>& budget,
    std::uint64_t default_time_budget_ms = 0,
    const std::optional<std::chrono::steady_clock::time_point>& deadline =
        std::nullopt);

}  // namespace rtv::serve
