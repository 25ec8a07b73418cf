#include "serve/jobs.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <sstream>
#include <thread>

#include "analysis/lint.hpp"
#include "analysis/plan.hpp"
#include "core/validator.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "sim/binary_sim.hpp"
#include "sim/cls_sim.hpp"
#include "sim/vectors.hpp"
#include "util/rng.hpp"

namespace rtv::serve {

namespace {

using Clock = std::chrono::steady_clock;
using Kind = OptionKind;

[[noreturn]] void bad_option(const std::string& what) {
  throw ProtocolError(ErrorCode::kBadRequest, what);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBool: return "a boolean";
    case Kind::kUint: return "a non-negative integer";
    case Kind::kString: return "a string";
  }
  return "?";
}

bool has_kind(const JsonValue& v, Kind kind) {
  switch (kind) {
    case Kind::kBool: return v.is_bool();
    case Kind::kString: return v.is_string();
    case Kind::kUint: {
      if (!v.is_number()) return false;
      const double d = v.as_number();
      return d >= 0 && d == std::floor(d) && d <= 9007199254740992.0;
    }
  }
  return false;
}

/// The option's value, or nullptr when absent/null; throws when it has the
/// wrong kind.
const JsonValue* option(const JsonValue& options, const char* key, Kind kind) {
  if (!options.is_object()) return nullptr;  // absent options arrive as null
  const JsonValue* v = options.find(key);
  if (v == nullptr || v->is_null()) return nullptr;
  if (!has_kind(*v, kind)) {
    bad_option(std::string("option \"") + key + "\" must be " +
               kind_name(kind));
  }
  return v;
}

std::optional<std::uint64_t> option_uint(const JsonValue& options,
                                         const char* key,
                                         std::uint64_t max = UINT64_MAX) {
  const JsonValue* v = option(options, key, Kind::kUint);
  if (v == nullptr) return std::nullopt;
  const auto value = static_cast<std::uint64_t>(v->as_number());
  if (value > max) {
    bad_option(std::string("option \"") + key + "\" must be at most " +
               std::to_string(max));
  }
  return value;
}

std::optional<bool> option_bool(const JsonValue& options, const char* key) {
  const JsonValue* v = option(options, key, Kind::kBool);
  return v == nullptr ? std::nullopt : std::optional<bool>(v->as_bool());
}

std::optional<std::string> option_string(const JsonValue& options,
                                          const char* key) {
  const JsonValue* v = option(options, key, Kind::kString);
  return v == nullptr ? std::nullopt
                      : std::optional<std::string>(v->as_string());
}

std::vector<std::string> split_sequences(const std::string& list) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t end = list.find(',', begin);
    if (end == std::string::npos) {
      parts.push_back(list.substr(begin));
      break;
    }
    parts.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

JsonValue uint_json(std::uint64_t v) {
  return JsonValue(static_cast<double>(v));
}

std::vector<OptionSpec> with_verify(std::vector<OptionSpec> head) {
  const std::vector<OptionSpec>& verify = verify_option_specs();
  head.insert(head.end(), verify.begin(), verify.end());
  return head;
}

const OptionSpec* find_spec(const std::vector<OptionSpec>& specs,
                            const std::string& key) {
  for (const OptionSpec& spec : specs) {
    if (key == spec.key) return &spec;
  }
  return nullptr;
}

const std::vector<OptionSpec>& chaos_specs() {
  static const std::vector<OptionSpec> specs = {
      {"chaos_spin_ms", Kind::kUint},
      {"chaos_spin_cooperative_ms", Kind::kUint}};
  return specs;
}

// ---- lint ------------------------------------------------------------------

JsonValue encode_lint(const LintResult& r) {
  JsonValue::Object out;
  out.emplace_back("clean", JsonValue(r.clean()));
  out.emplace_back("errors", uint_json(r.diagnostics.num_errors()));
  out.emplace_back("warnings", uint_json(r.diagnostics.num_warnings()));
  out.emplace_back("notes", uint_json(r.diagnostics.num_notes()));
  JsonValue::Array diagnostics;
  for (const Diagnostic& d : r.diagnostics.diagnostics()) {
    JsonValue::Object diag;
    diag.emplace_back("code", JsonValue(to_string(d.code)));
    diag.emplace_back("severity",
                      JsonValue(std::string(to_string(d.severity))));
    if (!d.node_name.empty()) diag.emplace_back("node", JsonValue(d.node_name));
    if (d.move_index) diag.emplace_back("move", uint_json(*d.move_index));
    diag.emplace_back("message", JsonValue(d.message));
    diagnostics.emplace_back(std::move(diag));
  }
  out.emplace_back("diagnostics", JsonValue(std::move(diagnostics)));
  if (r.dataflow_stats) {
    const DataflowStats& s = *r.dataflow_stats;
    JsonValue::Object dataflow;
    dataflow.emplace_back("ports", uint_json(s.num_ports));
    dataflow.emplace_back("iterations", uint_json(s.iterations));
    dataflow.emplace_back("updates", uint_json(s.updates));
    dataflow.emplace_back("table_fallbacks", uint_json(s.table_fallbacks));
    out.emplace_back("dataflow", JsonValue(std::move(dataflow)));
  }
  if (r.plan) {
    const PlanAnalysis& p = *r.plan;
    JsonValue::Object plan;
    plan.emplace_back("analyzable", JsonValue(p.analyzable));
    if (!p.analyzable) {
      plan.emplace_back("precondition_error", JsonValue(p.precondition_error));
    }
    plan.emplace_back("feasible", JsonValue(p.feasible));
    plan.emplace_back("moves", uint_json(p.stats.total_moves));
    plan.emplace_back("forward_moves", uint_json(p.stats.forward_moves));
    plan.emplace_back("backward_moves", uint_json(p.stats.backward_moves));
    plan.emplace_back("forward_across_non_justifiable",
                      uint_json(p.stats.forward_across_non_justifiable));
    plan.emplace_back("k", JsonValue(static_cast<double>(p.k())));
    plan.emplace_back("safe_replacement",
                      JsonValue(p.stats.preserves_safe_replacement()));
    plan.emplace_back("certificate", JsonValue(p.stats.certificate()));
    out.emplace_back("plan", JsonValue(std::move(plan)));
  }
  return JsonValue(std::move(out));
}

JobOutput lint_job(const JsonValue& options, const JobDesigns& designs,
                   const JobEnv& env) {
  LintOptions lint;
  lint.require_junction_normal =
      option_bool(options, "require_junction_normal")
          .value_or(lint.require_junction_normal);
  lint.warn_unreachable =
      option_bool(options, "warn_unreachable").value_or(lint.warn_unreachable);
  lint.semantic = option_bool(options, "semantic").value_or(lint.semantic);
  if (const auto k = option_uint(options, "max_k")) {
    lint.max_k = static_cast<std::size_t>(*k);
  }
  const Netlist& netlist = *designs.a;
  const auto plan = option_string(options, "plan");
  const LintResult result =
      plan ? run_lint(netlist, plan_from_json(*plan, netlist).moves, lint)
           : run_lint(netlist, lint);

  JobOutput out;
  out.result = encode_lint(result);
  if (env.want_text) out.text = render_text(result);
  return out;
}

// ---- validate --------------------------------------------------------------

JobOutput validate_job(const JsonValue& options, const JobDesigns& designs,
                       const JobEnv& env) {
  const std::string objective =
      option_string(options, "objective").value_or("min-area");
  if (objective != "min-area" && objective != "min-period") {
    bad_option("option \"objective\" must be \"min-area\" or \"min-period\"");
  }
  ValidationOptions validation;
  validation.verify = decode_verify_options(options);
  validation.budget = env.limits;
  validation.cancel = env.cancel;

  std::optional<RetimeGraph> own_graph;
  const RetimeGraph& graph =
      designs.graph != nullptr
          ? *designs.graph
          : own_graph.emplace(RetimeGraph::from_netlist(*designs.a));
  const std::vector<int> lag = objective == "min-period"
                                   ? min_period_retime_feas(graph).lag
                                   : min_area_retime(graph).lag;
  const RetimingValidation v =
      validate_retiming(*designs.a, graph, lag, validation);

  JobOutput out;
  out.verdict = to_string(v.verdict);
  out.usage = v.usage;
  JsonValue::Object result;
  result.emplace_back("objective", JsonValue(objective));
  result.emplace_back("theorems_hold", JsonValue(v.theorems_hold));
  result.emplace_back("cls_equivalent", JsonValue(v.cls.equivalent));
  result.emplace_back("cls_exhaustive", JsonValue(v.cls.exhaustive));
  result.emplace_back("decided_by",
                      JsonValue(std::string(to_string(v.cls.decided_by))));
  result.emplace_back("decided_reason", JsonValue(v.cls.decided_reason));
  result.emplace_back("stg_checked", JsonValue(v.stg_checked));
  result.emplace_back("safe_replacement", JsonValue(v.safe_replacement));
  result.emplace_back("min_delay_implication",
                      JsonValue(static_cast<double>(v.min_delay_implication)));
  result.emplace_back("c_quotient_states",
                      JsonValue(static_cast<double>(v.c_quotient_states)));
  result.emplace_back("d_quotient_states",
                      JsonValue(static_cast<double>(v.d_quotient_states)));
  out.result = JsonValue(std::move(result));
  if (env.want_text) out.text = v.summary();
  return out;
}

// ---- faultsim --------------------------------------------------------------

JobOutput faultsim_job(const JsonValue& options, const JobDesigns& designs,
                       const JobEnv& env) {
  const Netlist& netlist = *designs.a;
  FaultSimOptions sim;
  sim.mode = FaultSimMode::kCls;
  if (const auto name = option_string(options, "mode")) {
    const auto mode = fault_sim_mode_from_string(*name);
    if (!mode) {
      bad_option("option \"mode\" must be \"exact\", \"sampled\" or \"cls\"");
    }
    sim.mode = *mode;
  }
  sim.threads = env.threads;
  sim.drop_detected = option_bool(options, "drop_detected").value_or(true);
  if (const auto v = option_uint(options, "sample_lanes", UINT_MAX)) {
    sim.sample_lanes = static_cast<unsigned>(*v);
  }
  const std::uint64_t seed = option_uint(options, "seed").value_or(1);
  sim.sample_seed = seed;
  sim.budget = env.limits;
  sim.cancel = env.cancel;

  std::vector<BitsSeq> tests;
  if (const auto inputs = option_string(options, "inputs")) {
    for (const std::string& part : split_sequences(*inputs)) {
      tests.push_back(bits_seq_from_string(part));
    }
  } else {
    const auto count = option_uint(options, "tests", UINT_MAX).value_or(64);
    const auto cycles = option_uint(options, "cycles", UINT_MAX).value_or(16);
    const std::size_t width = netlist.primary_inputs().size();
    Rng rng(seed);
    tests.resize(count);
    for (BitsSeq& seq : tests) {
      for (std::uint64_t t = 0; t < cycles; ++t) {
        Bits in(width);
        for (auto& v : in) v = rng.coin();
        seq.push_back(std::move(in));
      }
    }
  }

  const std::vector<Fault> faults =
      option_bool(options, "all_faults").value_or(false)
          ? enumerate_faults(netlist)
          : collapse_faults(netlist);
  const FaultSimResult r = fault_simulate(netlist, faults, tests, sim);

  JobOutput out;
  out.verdict = r.complete ? "bounded" : "exhausted";
  out.usage = r.usage;
  JsonValue::Object result;
  result.emplace_back("mode", JsonValue(std::string(to_string(sim.mode))));
  result.emplace_back("faults", uint_json(faults.size()));
  result.emplace_back("tests", uint_json(tests.size()));
  result.emplace_back("detected", uint_json(r.num_detected));
  result.emplace_back("coverage", JsonValue(r.coverage));
  result.emplace_back("complete", JsonValue(r.complete));
  result.emplace_back("faults_skipped", uint_json(r.faults_skipped));
  result.emplace_back("faults_dropped", uint_json(r.faults_dropped));
  result.emplace_back("tests_run", uint_json(r.tests_run));
  out.result = JsonValue(std::move(result));
  return out;
}

// ---- cls-equivalence -------------------------------------------------------

JobOutput cls_equivalence_job(const JsonValue& options,
                              const JobDesigns& designs, const JobEnv& env) {
  const VerifyOptions verify = decode_verify_options(options);
  ResourceBudget budget =
      ResourceBudget::with_deadline(env.limits, env.cancel, env.deadline);
  const ClsEquivalenceResult r =
      verify_cls_equivalence(*designs.a, *designs.b, verify, &budget);

  JobOutput out;
  out.verdict = to_string(r.verdict);
  out.usage = r.usage;
  JsonValue::Object result;
  if (!designs.b_id.empty()) {
    result.emplace_back("design_b_id", JsonValue(designs.b_id));
  }
  result.emplace_back("equivalent", JsonValue(r.equivalent));
  result.emplace_back("exhaustive", JsonValue(r.exhaustive));
  result.emplace_back("pairs_explored", uint_json(r.pairs_explored));
  result.emplace_back("decided_by",
                      JsonValue(std::string(to_string(r.decided_by))));
  result.emplace_back("decided_reason", JsonValue(r.decided_reason));
  result.emplace_back("counterexample",
                      r.counterexample
                          ? JsonValue(sequence_to_string(*r.counterexample))
                          : JsonValue(nullptr));
  out.result = JsonValue(std::move(result));
  if (env.want_text) {
    out.text = r.summary() + "\ndecided by: " + to_string(r.decided_by) +
               " (" + r.decided_reason + ")\n";
  }
  return out;
}

// ---- simulate --------------------------------------------------------------

/// Deterministic occupancy handlers for the overload tests and bench:
/// chaos_spin_ms holds a slot while *ignoring* cancellation (a wedged
/// backend); chaos_spin_cooperative_ms polls its token like a well-behaved
/// one.
JobOutput chaos_job(std::uint64_t spin_ms, bool cooperative,
                    const JobEnv& env) {
  const auto start = Clock::now();
  const auto until = start + std::chrono::milliseconds(spin_ms);
  bool cancelled = false;
  while (Clock::now() < until) {
    if (cooperative && env.cancel.cancelled()) {
      cancelled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  JsonValue::Object result;
  result.emplace_back("mode", JsonValue(std::string("chaos")));
  result.emplace_back(
      "spun_ms",
      JsonValue(std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count()));
  result.emplace_back("cancelled", JsonValue(cancelled));
  JobOutput out;
  out.result = JsonValue(std::move(result));
  return out;
}

JobOutput simulate_job(const JsonValue& options, const JobDesigns& designs,
                       const JobEnv& env) {
  if (env.chaos_hooks) {
    const auto spin = option_uint(options, "chaos_spin_ms");
    const auto coop = option_uint(options, "chaos_spin_cooperative_ms");
    if (spin && coop) {
      bad_option("chaos_spin_ms and chaos_spin_cooperative_ms are "
                 "mutually exclusive");
    }
    if (spin || coop) return chaos_job(spin ? *spin : *coop, !spin, env);
  }

  const auto inputs = option_string(options, "inputs");
  if (!inputs || inputs->empty()) {
    bad_option("simulate needs options.inputs "
               "(comma-separated '.'-delimited sequences)");
  }
  const std::string mode = option_string(options, "mode").value_or("cls");
  if (mode != "cls" && mode != "binary") {
    bad_option("option \"mode\" must be \"cls\" or \"binary\"");
  }
  const auto state_text = option_string(options, "state");
  if (mode == "cls" && state_text) {
    bad_option("option \"state\" is only valid in binary mode "
               "(CLS always powers up all-X)");
  }

  const Netlist& netlist = *designs.a;
  const Bits state = state_text ? bits_from_string(*state_text)
                                : Bits(netlist.latches().size(), 0);
  std::ostringstream text;
  JsonValue::Array responses;
  for (const std::string& part : split_sequences(*inputs)) {
    std::string in;
    std::string response;
    if (mode == "cls") {
      const TritsSeq seq = trits_seq_from_string(part);
      ClsSimulator sim(netlist);  // fresh all-X power-up per sequence
      response = sequence_to_string(sim.run(seq));
      if (env.want_text) in = sequence_to_string(seq);
    } else {
      const BitsSeq seq = bits_seq_from_string(part);
      BinarySimulator sim(netlist);
      sim.set_state(state);
      response = sequence_to_string(sim.run(seq));
      if (env.want_text) in = sequence_to_string(seq);
    }
    if (env.want_text) text << in << " -> " << response << "\n";
    responses.emplace_back(std::move(response));
  }

  JobOutput out;
  JsonValue::Object result;
  result.emplace_back("mode", JsonValue(mode));
  result.emplace_back("responses", JsonValue(std::move(responses)));
  out.result = JsonValue(std::move(result));
  out.text = text.str();
  return out;
}

}  // namespace

const std::vector<OptionSpec>& verify_option_specs() {
  static const std::vector<OptionSpec> specs = {
      {"backend", Kind::kString},       {"max_branching", Kind::kUint},
      {"max_pairs", Kind::kUint},       {"random_sequences", Kind::kUint},
      {"random_length", Kind::kUint},   {"seed", Kind::kUint},
      {"bdd_gc", Kind::kBool},          {"bdd_reorder", Kind::kString}};
  return specs;
}

const std::vector<OptionSpec>& option_specs(JobType type) {
  static const std::vector<OptionSpec> lint = {
      {"require_junction_normal", Kind::kBool},
      {"warn_unreachable", Kind::kBool},
      {"max_k", Kind::kUint},
      {"semantic", Kind::kBool},
      {"plan", Kind::kString}};
  static const std::vector<OptionSpec> validate =
      with_verify({{"objective", Kind::kString}});
  static const std::vector<OptionSpec> faultsim = {
      {"mode", Kind::kString},       {"tests", Kind::kUint},
      {"cycles", Kind::kUint},       {"seed", Kind::kUint},
      {"inputs", Kind::kString},     {"all_faults", Kind::kBool},
      {"drop_detected", Kind::kBool}, {"sample_lanes", Kind::kUint}};
  static const std::vector<OptionSpec> simulate = {
      {"inputs", Kind::kString},
      {"mode", Kind::kString},
      {"state", Kind::kString}};
  static const std::vector<OptionSpec> none;
  switch (type) {
    case JobType::kLint: return lint;
    case JobType::kValidate: return validate;
    case JobType::kFaultSim: return faultsim;
    case JobType::kClsEquivalence: return verify_option_specs();
    case JobType::kSimulate: return simulate;
    case JobType::kStats:
    case JobType::kHealth:
    case JobType::kShutdown: break;
  }
  return none;
}

VerifyOptions decode_verify_options(const JsonValue& options) {
  VerifyOptions verify;
  if (const auto name = option_string(options, "backend")) {
    const auto backend = equivalence_backend_from_string(*name);
    if (!backend) {
      bad_option("option \"backend\" must be \"explicit\", \"bdd\", "
                 "\"sat\", \"portfolio\" or \"static\"");
    }
    verify.backend = *backend;
  }
  ClsEquivOptions& explicit_opts = verify.explicit_opts;
  if (const auto v = option_uint(options, "max_branching")) {
    explicit_opts.max_branching = *v;
  }
  if (const auto v = option_uint(options, "max_pairs")) {
    explicit_opts.max_pairs = static_cast<std::size_t>(*v);
  }
  if (const auto v = option_uint(options, "random_sequences", UINT_MAX)) {
    explicit_opts.random_sequences = static_cast<unsigned>(*v);
  }
  if (const auto v = option_uint(options, "random_length", UINT_MAX)) {
    explicit_opts.random_length = static_cast<unsigned>(*v);
  }
  if (const auto v = option_uint(options, "seed")) explicit_opts.seed = *v;
  if (const auto v = option_bool(options, "bdd_gc")) verify.bdd.gc = *v;
  if (const auto mode = option_string(options, "bdd_reorder")) {
    if (*mode == "pressure") {
      verify.bdd.reorder.mode = ReorderMode::kOnPressure;
    } else if (*mode != "off") {
      bad_option("option \"bdd_reorder\" must be \"off\" or \"pressure\"");
    }
  }
  return verify;
}

void check_job_options(JobType type, const JsonValue& options,
                       bool chaos_hooks) {
  if (!options.is_object()) return;  // absent options arrive as JSON null
  const std::vector<OptionSpec>& specs = option_specs(type);
  const bool chaos = chaos_hooks && type == JobType::kSimulate;
  for (const auto& [key, value] : options.as_object()) {
    const OptionSpec* spec = find_spec(specs, key);
    if (spec == nullptr && chaos) spec = find_spec(chaos_specs(), key);
    if (spec == nullptr) bad_option("unknown option \"" + key + "\"");
    if (!value.is_null() && !has_kind(value, spec->kind)) {
      bad_option("option \"" + key + "\" must be " + kind_name(spec->kind));
    }
  }
}

JobOutput run_job(JobType type, const JsonValue& options,
                  const JobDesigns& designs, const JobEnv& env) {
  check_job_options(type, options, env.chaos_hooks);
  switch (type) {
    case JobType::kLint: return lint_job(options, designs, env);
    case JobType::kValidate: return validate_job(options, designs, env);
    case JobType::kFaultSim: return faultsim_job(options, designs, env);
    case JobType::kClsEquivalence:
      return cls_equivalence_job(options, designs, env);
    case JobType::kSimulate: return simulate_job(options, designs, env);
    case JobType::kStats:
    case JobType::kHealth:
    case JobType::kShutdown: break;
  }
  throw InvalidArgument(std::string("\"") + to_string(type) +
                        "\" is not a design job");
}

ResourceLimits job_limits(const std::optional<BudgetSpec>& budget,
                          std::uint64_t default_time_budget_ms,
                          const std::optional<Clock::time_point>& deadline) {
  const BudgetSpec spec = budget.value_or(BudgetSpec{});
  ResourceLimits limits;
  limits.time_budget_ms =
      spec.time_ms != 0 ? spec.time_ms : default_time_budget_ms;
  if (spec.node_limit != 0) limits.bdd_node_limit = spec.node_limit;
  limits.step_quota = spec.step_quota;
  if (deadline) {
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(*deadline - Clock::now())
            .count();
    const auto remaining =
        static_cast<std::uint64_t>(std::max(remaining_ms, 1.0));
    if (limits.time_budget_ms == 0 || limits.time_budget_ms > remaining) {
      limits.time_budget_ms = remaining;
    }
  }
  return limits;
}

}  // namespace rtv::serve
