#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

namespace rtv::serve {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw ProtocolError(ErrorCode::kBadRequest, what);
}

/// Reads an optional string member; rejects non-string values.
std::optional<std::string> opt_string(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->is_null()) return std::nullopt;
  if (!v->is_string()) bad_request(std::string("\"") + key + "\" must be a string");
  return v->as_string();
}

/// Reads an optional non-negative integer member.
std::optional<std::uint64_t> opt_uint(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->is_null()) return std::nullopt;
  if (!v->is_number()) bad_request(std::string("\"") + key + "\" must be a number");
  const double d = v->as_number();
  if (d < 0 || d != std::floor(d) || d > 9007199254740992.0) {
    bad_request(std::string("\"") + key + "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

JsonValue usage_object(const ResourceUsage& usage) {
  const auto count = [](std::uint64_t n) {
    return JsonValue(static_cast<double>(n));
  };
  return JsonValue(JsonValue::Object{
      {"wall_ms", JsonValue(usage.wall_ms)},
      {"steps", count(usage.steps)},
      {"peak_bdd_nodes", count(usage.peak_bdd_nodes)},
      {"state_pairs", count(usage.state_pairs)},
      {"bdd_gc_runs", count(usage.bdd_gc_runs)},
      {"bdd_nodes_reclaimed", count(usage.bdd_nodes_reclaimed)},
      {"bdd_reorder_runs", count(usage.bdd_reorder_runs)},
      {"peak_live_bdd_nodes", count(usage.peak_live_bdd_nodes)},
      {"exhausted", JsonValue(usage.exhausted)},
      {"blown", usage.blown ? JsonValue(std::string(to_string(*usage.blown)))
                            : JsonValue(nullptr)},
  });
}

}  // namespace

const char* to_string(JobType type) {
  switch (type) {
    case JobType::kLint: return "lint";
    case JobType::kValidate: return "validate";
    case JobType::kFaultSim: return "faultsim";
    case JobType::kClsEquivalence: return "cls-equivalence";
    case JobType::kSimulate: return "simulate";
    case JobType::kStats: return "stats";
    case JobType::kHealth: return "health";
    case JobType::kShutdown: return "shutdown";
  }
  return "?";
}

std::optional<JobType> job_type_from_string(std::string_view name) {
  if (name == "lint") return JobType::kLint;
  if (name == "validate") return JobType::kValidate;
  if (name == "faultsim") return JobType::kFaultSim;
  if (name == "cls-equivalence") return JobType::kClsEquivalence;
  if (name == "simulate") return JobType::kSimulate;
  if (name == "stats") return JobType::kStats;
  if (name == "health") return JobType::kHealth;
  if (name == "shutdown") return JobType::kShutdown;
  return std::nullopt;
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kCapacity: return "capacity";
    case ErrorCode::kDesignNotFound: return "design_not_found";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

JobRequest parse_request(const JsonValue& document) {
  if (!document.is_object()) bad_request("request frame must be a JSON object");

  const JsonValue* version = document.find("rtv_serve");
  if (version == nullptr || !version->is_number() ||
      version->as_number() < kMinProtocolVersion ||
      version->as_number() > kProtocolVersion) {
    bad_request("\"rtv_serve\" must be present and between " +
                std::to_string(kMinProtocolVersion) + " and " +
                std::to_string(kProtocolVersion));
  }

  JobRequest request;
  const std::optional<std::string> id = opt_string(document, "id");
  if (!id || id->empty()) bad_request("\"id\" must be a non-empty string");
  request.id = *id;

  const std::optional<std::string> type = opt_string(document, "type");
  if (!type) bad_request("\"type\" must be a string");
  const std::optional<JobType> job_type = job_type_from_string(*type);
  if (!job_type) bad_request("unknown job type \"" + *type + "\"");
  request.type = *job_type;

  request.design_text = opt_string(document, "design");
  request.design_id = opt_string(document, "design_id");
  request.design_b_text = opt_string(document, "design_b");
  request.design_b_id = opt_string(document, "design_b_id");

  const bool needs_design = request.type == JobType::kLint ||
                            request.type == JobType::kValidate ||
                            request.type == JobType::kFaultSim ||
                            request.type == JobType::kClsEquivalence ||
                            request.type == JobType::kSimulate;
  const auto check_one = [](const std::optional<std::string>& text,
                            const std::optional<std::string>& ref,
                            const char* what, bool required) {
    if (text && ref) {
      bad_request(std::string(what) + " given both inline and by id");
    }
    if (required && !text && !ref) {
      bad_request(std::string(what) +
                  " required: provide \"design\" or \"design_id\"");
    }
  };
  check_one(request.design_text, request.design_id, "design", needs_design);
  check_one(request.design_b_text, request.design_b_id, "design_b",
            request.type == JobType::kClsEquivalence);
  if (request.type != JobType::kClsEquivalence &&
      (request.design_b_text || request.design_b_id)) {
    bad_request("design_b is only valid for cls-equivalence jobs");
  }
  if (!needs_design && (request.design_text || request.design_id)) {
    bad_request(std::string("a ") + to_string(request.type) +
                " request takes no design");
  }

  if (const std::optional<std::uint64_t> deadline =
          opt_uint(document, "deadline_ms")) {
    if (!needs_design) {
      bad_request(std::string("a ") + to_string(request.type) +
                  " request takes no deadline_ms");
    }
    request.deadline_ms = *deadline;
  }

  if (const JsonValue* budget = document.find("budget")) {
    if (!budget->is_null()) {
      if (!budget->is_object()) bad_request("\"budget\" must be an object");
      BudgetSpec spec;
      spec.time_ms = opt_uint(*budget, "time_ms").value_or(0);
      spec.node_limit = static_cast<std::size_t>(
          opt_uint(*budget, "node_limit").value_or(0));
      spec.step_quota = opt_uint(*budget, "step_quota").value_or(0);
      request.budget = spec;
    }
  }

  if (const JsonValue* options = document.find("options")) {
    if (!options->is_null() && !options->is_object()) {
      bad_request("\"options\" must be an object");
    }
    request.options = *options;
  }
  return request;
}

std::string render_response(const std::string& id, JobType type,
                            const std::string& design_id,
                            const JsonValue& result,
                            const JobStatsWire& stats) {
  JsonValue::Object frame;
  frame.emplace_back("rtv_serve",
                     JsonValue(static_cast<double>(kProtocolVersion)));
  frame.emplace_back("id", JsonValue(id));
  frame.emplace_back("ok", JsonValue(true));
  frame.emplace_back("type", JsonValue(std::string(to_string(type))));
  if (!design_id.empty()) {
    frame.emplace_back("design_id", JsonValue(design_id));
  }
  frame.emplace_back("result", result);

  JsonValue::Object s{
      {"queue_ms", JsonValue(stats.queue_ms)},
      {"run_ms", JsonValue(stats.run_ms)},
      {"cache_hit", JsonValue(stats.cache_hit)},
      {"verdict", JsonValue(stats.verdict)},
  };
  if (stats.governed) s.emplace_back("usage", usage_object(stats.usage));
  frame.emplace_back("stats", JsonValue(std::move(s)));
  return write_json(JsonValue(std::move(frame)));
}

std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message,
                         const ErrorDetail& detail) {
  JsonValue::Object frame;
  frame.emplace_back("rtv_serve",
                     JsonValue(static_cast<double>(kProtocolVersion)));
  frame.emplace_back("id",
                     id.empty() ? JsonValue(nullptr) : JsonValue(id));
  frame.emplace_back("ok", JsonValue(false));
  JsonValue::Object error;
  error.emplace_back("code", JsonValue(std::string(to_string(code))));
  error.emplace_back("message", JsonValue(message));
  if (detail.retry_after_ms) {
    error.emplace_back("retry_after_ms",
                       JsonValue(static_cast<double>(*detail.retry_after_ms)));
  }
  if (detail.expired_in_queue) {
    error.emplace_back("expired_in_queue", JsonValue(true));
  }
  frame.emplace_back("error", JsonValue(std::move(error)));
  return write_json(JsonValue(std::move(frame)));
}

ErrorCode error_code_for_exception(const std::exception& error) {
  if (const auto* p = dynamic_cast<const ProtocolError*>(&error)) {
    return p->code();
  }
  if (dynamic_cast<const ParseError*>(&error) != nullptr) {
    return ErrorCode::kParseError;
  }
  if (dynamic_cast<const CapacityError*>(&error) != nullptr) {
    return ErrorCode::kCapacity;
  }
  if (dynamic_cast<const InvalidArgument*>(&error) != nullptr) {
    return ErrorCode::kInvalidArgument;
  }
  return ErrorCode::kInternal;
}

std::string validate_response(const JsonValue& document) {
  if (!document.is_object()) return "response frame must be a JSON object";
  const JsonValue* version = document.find("rtv_serve");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kProtocolVersion) {
    return "\"rtv_serve\" must equal " + std::to_string(kProtocolVersion);
  }
  const JsonValue* id = document.find("id");
  if (id == nullptr || (!id->is_string() && !id->is_null())) {
    return "\"id\" must be a string (or null in an error envelope)";
  }
  const JsonValue* ok = document.find("ok");
  if (ok == nullptr || !ok->is_bool()) return "\"ok\" must be a boolean";

  if (!ok->as_bool()) {
    const JsonValue* error = document.find("error");
    if (error == nullptr || !error->is_object()) {
      return "error envelope needs an \"error\" object";
    }
    const JsonValue* code = error->find("code");
    if (code == nullptr || !code->is_string()) {
      return "\"error.code\" must be a string";
    }
    static const char* known[] = {"bad_request",      "parse_error",
                                  "invalid_argument", "capacity",
                                  "design_not_found", "shutting_down",
                                  "overloaded",       "internal"};
    bool found = false;
    for (const char* k : known) found |= code->as_string() == k;
    if (!found) return "unknown error code \"" + code->as_string() + "\"";
    const JsonValue* message = error->find("message");
    if (message == nullptr || !message->is_string()) {
      return "\"error.message\" must be a string";
    }
    if (const JsonValue* retry = error->find("retry_after_ms")) {
      if (!retry->is_number() || retry->as_number() < 0) {
        return "\"error.retry_after_ms\" must be a non-negative number";
      }
    }
    if (const JsonValue* expired = error->find("expired_in_queue")) {
      if (!expired->is_bool()) {
        return "\"error.expired_in_queue\" must be a boolean";
      }
    }
    return "";
  }

  const JsonValue* type = document.find("type");
  if (type == nullptr || !type->is_string() ||
      !job_type_from_string(type->as_string())) {
    return "success response needs a known \"type\"";
  }
  if (document.find("result") == nullptr) {
    return "success response needs a \"result\"";
  }
  const JsonValue* stats = document.find("stats");
  if (stats == nullptr || !stats->is_object()) {
    return "success response needs a \"stats\" object";
  }
  for (const char* key : {"queue_ms", "run_ms"}) {
    const JsonValue* v = stats->find(key);
    if (v == nullptr || !v->is_number()) {
      return std::string("\"stats.") + key + "\" must be a number";
    }
  }
  const JsonValue* cache_hit = stats->find("cache_hit");
  if (cache_hit == nullptr || !cache_hit->is_bool()) {
    return "\"stats.cache_hit\" must be a boolean";
  }
  const JsonValue* verdict = stats->find("verdict");
  if (verdict == nullptr || !verdict->is_string()) {
    return "\"stats.verdict\" must be a string";
  }
  const std::string& v = verdict->as_string();
  if (v != "proven" && v != "bounded" && v != "exhausted" && v != "none") {
    return "unknown verdict \"" + v + "\"";
  }
  if (const JsonValue* usage = stats->find("usage")) {
    if (!usage->is_object()) return "\"stats.usage\" must be an object";
    for (const char* key : {"wall_ms", "steps", "peak_bdd_nodes",
                            "state_pairs", "bdd_gc_runs",
                            "bdd_nodes_reclaimed", "bdd_reorder_runs",
                            "peak_live_bdd_nodes"}) {
      const JsonValue* u = usage->find(key);
      if (u == nullptr || !u->is_number()) {
        return std::string("\"stats.usage.") + key + "\" must be a number";
      }
    }
    const JsonValue* exhausted = usage->find("exhausted");
    if (exhausted == nullptr || !exhausted->is_bool()) {
      return "\"stats.usage.exhausted\" must be a boolean";
    }
  }
  return "";
}

}  // namespace rtv::serve
