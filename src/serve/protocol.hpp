#pragma once
// The `rtv serve` wire protocol: typed request/response structures and the
// codec between them and the newline-delimited JSON framing. The full
// protocol reference — every schema, the error envelope, shutdown and
// backpressure semantics — lives in docs/serve.md; every JSON example
// there is round-tripped through this codec by tests/test_docs_examples.cpp
// so the spec and the code cannot drift apart.
//
// Layering: this header knows JSON and job shapes, nothing about sockets,
// threads, or caches — serve/server.hpp owns those. That keeps the codec
// unit-testable against raw strings and the docs.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "io/json.hpp"
#include "util/budget.hpp"

namespace rtv::serve {

/// Wire protocol version; every request and response carries it as
/// "rtv_serve". Bumped only on breaking schema changes. Version 2 added
/// backend selection to cls-equivalence requests ("backend") and the
/// "decided_by"/"decided_reason" result fields. Version 3 added overload
/// semantics: the "overloaded" error code with "retry_after_ms" /
/// "expired_in_queue" hints, a per-request "deadline_ms", and the "health"
/// control job type. Requests are still accepted at kMinProtocolVersion
/// since older frames are a strict subset.
inline constexpr int kProtocolVersion = 3;
inline constexpr int kMinProtocolVersion = 1;

/// What a request asks the service to do. The five job types mirror the
/// CLI subcommands of the same names; kStats, kHealth and kShutdown are
/// service-control requests handled without touching a design.
enum class JobType {
  kLint,            ///< structural diagnostics (RTV1xx)
  kValidate,        ///< full retiming validation (Section 4 + Cor 5.3)
  kFaultSim,        ///< batch stuck-at fault simulation
  kClsEquivalence,  ///< CLS equivalence of two designs (Thm 5.1)
  kSimulate,        ///< binary/CLS simulation of input sequences
  kStats,           ///< server statistics snapshot
  kHealth,          ///< lightweight liveness probe, answered inline
  kShutdown,        ///< graceful drain-and-exit
};

const char* to_string(JobType type);
std::optional<JobType> job_type_from_string(std::string_view name);

/// Stable machine-readable error codes of the error envelope. The mapping
/// to CLI exit codes is documented in docs/serve.md ("Error envelope").
enum class ErrorCode {
  kBadRequest,       ///< malformed frame: not JSON, bad version, missing field
  kParseError,       ///< a design payload failed to parse       (CLI exit 3)
  kInvalidArgument,  ///< a documented precondition was violated (CLI exit 4)
  kCapacity,         ///< a capacity limit was exceeded          (CLI exit 5)
  kDesignNotFound,   ///< design_id not (or no longer) in the cache
  kShuttingDown,     ///< request arrived after shutdown began
  kOverloaded,       ///< admission queue full or deadline expired queued
  kInternal,         ///< internal invariant failed              (CLI exit 70)
};

const char* to_string(ErrorCode code);

/// Thrown by the codec and the job handlers for failures that map to a
/// specific wire error code; the server renders it into the error
/// envelope. Other rtv::Error subclasses are mapped by type (see
/// error_code_for_exception in protocol.cpp).
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode code, const std::string& what)
      : Error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Per-job resource caps, all optional on the wire. A zero/absent time_ms
/// inherits the server's --default-time-budget-ms; node_limit 0 keeps the
/// library default cap.
struct BudgetSpec {
  std::uint64_t time_ms = 0;
  std::size_t node_limit = 0;
  std::uint64_t step_quota = 0;
};

/// One parsed request frame. Exactly one of design_text/design_id is set
/// for job types that need a design (both empty for kStats/kShutdown);
/// kClsEquivalence additionally carries design_b_text/design_b_id.
/// `options` keeps the per-type "options" object (JSON null when absent)
/// for the job layer (serve/jobs.hpp) to interpret.
struct JobRequest {
  std::string id;
  JobType type = JobType::kStats;
  std::optional<std::string> design_text;
  std::optional<std::string> design_id;
  std::optional<std::string> design_b_text;
  std::optional<std::string> design_b_id;
  std::optional<BudgetSpec> budget;
  JsonValue options;
  /// Client latency bound in milliseconds, measured from admission: the
  /// server converts it to an absolute deadline, counts queue wait against
  /// it, and sheds the job ("overloaded", expired_in_queue) rather than run
  /// it after the deadline has passed. 0 = inherit --default-deadline-ms.
  /// Only valid on design job types.
  std::uint64_t deadline_ms = 0;
};

/// Parses one already-JSON-parsed request frame. Throws ProtocolError
/// (kBadRequest) on any schema violation: wrong/missing version, missing
/// id/type, unknown type, a design given both inline and by id, a missing
/// design for a job type that needs one, or ill-typed fields.
JobRequest parse_request(const JsonValue& document);

/// Per-job statistics carried in every successful response ("stats"
/// object). queue_ms counts enqueue -> handler start; run_ms the handler
/// itself; verdict is the job's degradation-ladder label ("proven",
/// "bounded", "exhausted") or "none" for jobs without a governed verdict
/// (lint, simulate, stats, shutdown).
struct JobStatsWire {
  double queue_ms = 0.0;
  double run_ms = 0.0;
  bool cache_hit = false;
  std::string verdict = "none";
  ResourceUsage usage;
  bool governed = false;  ///< usage was measured under a live budget
};

/// Renders a success response frame: the envelope around a per-type
/// `result` object. `design_id` is echoed when the job resolved a design
/// (empty = omitted).
std::string render_response(const std::string& id, JobType type,
                            const std::string& design_id,
                            const JsonValue& result,
                            const JobStatsWire& stats);

/// Optional machine-readable hints attached to an error envelope
/// (protocol v3; today only kOverloaded rejections carry them).
struct ErrorDetail {
  /// Suggested client backoff before retrying, derived from the server's
  /// recent job-duration average and current queue depth.
  std::optional<std::uint64_t> retry_after_ms;
  /// True when the job was admitted but its deadline expired while it sat
  /// in the queue, so it was rejected without running.
  bool expired_in_queue = false;
};

/// Renders an error envelope frame. `id` may be empty when the frame was
/// too malformed to recover one (rendered as JSON null).
std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message,
                         const ErrorDetail& detail = {});

/// Maps a caught exception to its wire error code (ProtocolError carries
/// its own; ParseError -> kParseError, InvalidArgument -> kInvalidArgument,
/// CapacityError -> kCapacity, anything else -> kInternal).
ErrorCode error_code_for_exception(const std::exception& error);

/// Schema check of one response frame, as published in docs/serve.md:
/// returns an empty string when `document` is a well-formed success or
/// error response, else a description of the first violation. Used by the
/// docs round-trip test and available to client implementations.
std::string validate_response(const JsonValue& document);

}  // namespace rtv::serve
