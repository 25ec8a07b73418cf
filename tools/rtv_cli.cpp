// rtv — command-line driver for the retiming-validity library.
//
//   rtv info <design>                      summary, stats, safety census
//   rtv convert <in> <out>                 .rnl/.blif/.dot conversion
//   rtv simulate <design> --inputs SEQ[,SEQ...] [--mode binary|cls]
//                [--state BITS] [--vcd F]
//   rtv retime <design> (--min-area|--min-period|--period N) [-o OUT]
//   rtv validate <design> [--min-area|--min-period]          full check
//   rtv lint <design> [--plan F] [--json] [--max-k N] [--strict]
//   rtv audit <design>                     per-move safety classification
//   rtv redundancy <design> [-o OUT]       CLS-redundancy removal
//   rtv faultsim <design> [--mode M] ...   batch fault simulation, JSON out
//   rtv serve [--socket PATH] ...          long-running verification service
//
// lint, validate, faultsim, cls-equiv and simulate are one-frame in-process
// clients of the job layer `rtv serve` runs (serve/jobs.hpp): their flags
// become the job's options object, and --json prints the response frame the
// server would send for the same request.
//
// Design files are read by extension: .rnl (native) or .blif.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/equivalence.hpp"
#include "core/cls_reset.hpp"
#include "core/flow.hpp"
#include "core/redundancy.hpp"
#include "core/safety.hpp"
#include "io/blif.hpp"
#include "io/dot_export.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "io/vcd.hpp"
#include "retime/apply.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "retime/moves.hpp"
#include "serve/jobs.hpp"
#include "serve/server.hpp"
#include "sim/vectors.hpp"
#include "util/budget.hpp"
#include "util/fault_inject.hpp"

namespace rtv::cli {
namespace {

using serve::JobOutput;
using serve::JobType;
using serve::OptionKind;
using serve::OptionSpec;

// Exit codes (documented in usage() and docs/robustness.md). Every failure
// class gets its own code so scripts can tell a malformed netlist from a
// missing file from a blown budget without scraping stderr.
enum ExitCode : int {
  kExitOk = 0,              ///< success / property holds
  kExitVerdictFalse = 1,    ///< ran fine, the checked property does not hold
  kExitUsage = 2,           ///< bad command line
  kExitParse = 3,           ///< input file failed to parse (ParseError)
  kExitInvalidArgument = 4, ///< precondition violation (InvalidArgument)
  kExitCapacity = 5,        ///< capacity limit exceeded (CapacityError)
  kExitIo = 6,              ///< file missing/unreadable/unwritable (IoError)
  kExitExhausted = 7,       ///< budget blown under --on-exhaust=fail
  kExitInternal = 70,       ///< internal invariant failed (a bug)
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage:\n"
               "  rtv info <design>\n"
               "  rtv convert <in> <out>           (.rnl | .blif | .dot)\n"
               "  rtv simulate <design> --inputs SEQ[,SEQ...]"
               " [--mode binary|cls] [--cls]\n"
               "               [--state BITS] [--vcd FILE]\n"
               "      one response per sequence (default cls mode, from the\n"
               "      all-X power-up; --vcd writes the first sequence's"
               " waveform)\n"
               "  rtv retime <design> (--min-area | --min-period | --period N)"
               " [-o OUT]\n"
               "  rtv validate <design> [--min-area (default) | --min-period]\n"
               "  rtv lint <design> [--plan FILE] [--json] [--max-k N]"
               " [--strict] [--no-semantic]\n"
               "      structural diagnostics (RTV1xx), semantic ternary-\n"
               "      dataflow findings (RTV3xx, on by default; disable"
               " with\n"
               "      --no-semantic) and, with --plan, the Section-4 safety\n"
               "      verdict of a retiming-move plan (RTV2xx)\n"
               "  rtv audit <design>\n"
               "  rtv redundancy <design> [-o OUT]\n"
               "  rtv flow <design> [--min-area|--min-period|--period-then-area]"
               " [-o OUT]\n"
               "  rtv reset <design>                find a CLS reset sequence\n"
               "  rtv equiv <a> <b>                 symbolic C ⊑ D + min delay\n"
               "  rtv cls-equiv <a> <b> [--backend B] [--seed S] [--json]\n"
               "      CLS equivalence from all-X (Thm 5.1); exit 0 iff"
               " equivalent\n"
               "  rtv faultsim <design> [--mode exact|sampled|cls]"
               " [--threads N] [--no-drop]\n"
               "               [--inputs SEQ[,SEQ...] | --tests N --cycles L"
               " --seed S]\n"
               "               [--sample-lanes N] [--all-faults]\n"
               "      batch stuck-at fault simulation; prints its JSON"
               " response frame\n"
               "      (default: cls mode, all hardware threads, collapsed"
               " faults,\n"
               "      64 random tests of 16 cycles)\n"
               "  rtv serve [--socket PATH] [--threads N] [--max-inflight N]\n"
               "            [--admission-queue N] [--default-deadline-ms N]\n"
               "            [--watchdog-grace N] [--write-timeout-ms N]\n"
               "            [--default-time-budget-ms N] [--cache-bytes N]\n"
               "      long-running verification service: newline-delimited"
               " JSON jobs\n"
               "      over a Unix socket (or stdin/stdout without --socket);\n"
               "      jobs beyond max-inflight wait in a bounded admission\n"
               "      queue (default 2x max-inflight) and are shed with an\n"
               "      'overloaded' envelope when it is full; a watchdog\n"
               "      cancels jobs at their deadline and quarantines ones\n"
               "      that ignore it; wire protocol reference in"
               " docs/serve.md\n"
               "\n"
               "job options (lint, validate, faultsim, cls-equiv,"
               " simulate; flow takes\n"
               "the equivalence ones): every option of the `rtv serve` job"
               " of the same\n"
               "name (docs/serve.md) is a flag — option max_pairs is"
               " --max-pairs N,\n"
               "boolean option bdd_gc is --bdd-gc / --no-bdd-gc (or --bdd-gc"
               " on|off).\n"
               "--json prints the response frame the server would send.\n"
               "\n"
               "equivalence backends (validate, flow, cls-equiv):\n"
               "  --backend B          explicit (default) | bdd | sat |"
               " portfolio | static\n"
               "                       (engine matrix in docs/backends.md;\n"
               "                       every backend first tries the\n"
               "                       ternary-fixpoint proof, then the\n"
               "                       per-move certificate of a recovered\n"
               "                       lag when B is a retiming of A)\n"
               "  --bdd-gc on|off      reclaim dead BDD nodes under\n"
               "                       allocation pressure (default off)\n"
               "  --bdd-reorder MODE   off (default) | pressure: Rudell\n"
               "                       sifting of the variable order\n"
               "\n"
               "resource governance (validate, flow, cls-equiv, faultsim):\n"
               "  --time-budget-ms N   wall-clock budget (0 = unlimited)\n"
               "  --node-limit N       BDD node cap for the budget\n"
               "  --step-quota N       checkpoint quota (deterministic"
               " budget)\n"
               "  --on-exhaust MODE    degrade (default): return a partial,\n"
               "                       honestly-labeled report; fail: exit"
               " 7\n"
               "\n"
               "exit codes: 0 ok/property holds, 1 property fails, 2 usage,\n"
               "  3 parse error, 4 invalid argument, 5 capacity exceeded,\n"
               "  6 file I/O error, 7 budget exhausted (--on-exhaust=fail),\n"
               "  70 internal error\n");
  std::exit(kExitUsage);
}

/// Strict decimal parsing for numeric options: std::atoi would wrap
/// negatives through unsigned ("--threads -1" → ~4 billion worker threads)
/// and silently turn garbage into 0, so accept only plain digits in
/// [0, max] and reject everything else with a usage error.
std::uint64_t parse_number(const std::string& flag, const std::string& text,
                           std::uint64_t max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE || v > max) {
    usage(flag + " needs an integer in [0, " + std::to_string(max) +
          "], got '" + text + "'");
  }
  return v;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Netlist load_design(const std::string& path) {
  if (ends_with(path, ".blif")) return load_blif(path).netlist;
  if (ends_with(path, ".rnl")) return load_rnl(path);
  usage("design files must end in .rnl or .blif");
}

std::string read_text_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw IoError("cannot open '" + path + "'");
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

void save_design(const Netlist& n, const std::string& path) {
  if (ends_with(path, ".blif")) {
    save_blif(n, path);
  } else if (ends_with(path, ".rnl")) {
    save_rnl(n, path);
  } else if (ends_with(path, ".dot")) {
    std::ofstream f(path);
    if (!f) throw Error("cannot open '" + path + "'");
    f << netlist_to_dot(n);
  } else {
    usage("output files must end in .rnl, .blif or .dot");
  }
  std::printf("wrote %s\n", path.c_str());
}

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> out, vcd, plan;
  std::optional<int> period;
  bool min_area = false, min_period = false, period_then_area = false;
  bool json = false, strict = false;
  std::optional<unsigned> threads;  // faultsim engine, serve pool
  // serve
  std::optional<std::string> socket;
  std::optional<unsigned> max_inflight, admission_queue, watchdog_grace;
  std::optional<std::uint64_t> default_time_budget_ms, default_deadline_ms;
  std::optional<std::uint64_t> write_timeout_ms;
  std::optional<std::size_t> cache_bytes;
  // Resource governance: the budget object a serve request carries.
  serve::BudgetSpec budget;
  bool fail_on_exhaust = false;  // --on-exhaust fail (default: degrade)
  /// The job's options object, built from the command's option flags.
  JsonValue::Object options;
};

/// The serve job a command is a one-frame client of.
std::optional<JobType> job_of(const std::string& cmd) {
  if (cmd == "lint") return JobType::kLint;
  if (cmd == "validate") return JobType::kValidate;
  if (cmd == "faultsim") return JobType::kFaultSim;
  if (cmd == "cls-equiv") return JobType::kClsEquivalence;
  if (cmd == "simulate") return JobType::kSimulate;
  return std::nullopt;
}

/// The options a command takes as flags: its job's, or for flow the
/// equivalence gate's.
const std::vector<OptionSpec>* option_flags(const std::string& cmd) {
  if (const auto type = job_of(cmd)) return &serve::option_specs(*type);
  if (cmd == "flow") return &serve::verify_option_specs();
  return nullptr;
}

/// Older flag spellings, each rewritten to its option flag.
std::optional<std::string> legacy_flag(const std::string& cmd,
                                       const std::string& flag) {
  static const struct {
    const char* cmd;
    const char* flag;
    const char* canonical;
  } legacy_flags[] = {
      {"validate", "--min-area", "--objective=min-area"},
      {"validate", "--min-period", "--objective=min-period"},
      {"simulate", "--cls", "--mode=cls"},
      {"faultsim", "--random", "--tests"},
      {"faultsim", "--no-drop", "--no-drop-detected"},
  };
  for (const auto& legacy : legacy_flags) {
    if (cmd == legacy.cmd && flag == legacy.flag) return legacy.canonical;
  }
  return std::nullopt;
}

/// The option a flag names: `--max-pairs` is option max_pairs, and
/// `--no-semantic` clears the boolean option semantic (*negated).
const OptionSpec* find_option(const std::vector<OptionSpec>* specs,
                              const std::string& flag, bool* negated) {
  if (specs == nullptr || flag.rfind("--", 0) != 0) return nullptr;
  std::string key = flag.substr(2);
  std::replace(key.begin(), key.end(), '-', '_');
  *negated = key.rfind("no_", 0) == 0;
  for (const OptionSpec& spec : *specs) {
    if (key == spec.key) {
      *negated = false;
      return &spec;
    }
    if (*negated && spec.kind == OptionKind::kBool &&
        key.compare(3, std::string::npos, spec.key) == 0) {
      return &spec;
    }
  }
  return nullptr;
}

void set_option(JsonValue::Object* options, const std::string& key,
                JsonValue value) {
  for (auto& [k, v] : *options) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  options->emplace_back(key, std::move(value));
}

const JsonValue* find_option_value(const JsonValue::Object& options,
                                   const std::string& key) {
  for (const auto& [k, v] : options) {
    if (k == key) return &v;
  }
  return nullptr;
}

Args parse_args(const std::string& cmd, int argc, char** argv, int first) {
  // Largest integer a JSON number carries exactly.
  constexpr std::uint64_t max_option_int = std::uint64_t{1} << 53;
  const std::vector<OptionSpec>* specs = option_flags(cmd);
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::optional<std::string> inline_value;
    const auto split_value = [&] {
      const std::size_t eq = a.find('=');
      if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a = a.substr(0, eq);
      }
    };
    split_value();
    if (const auto canonical = legacy_flag(cmd, a)) {
      a = *canonical;
      split_value();
    }
    const auto value = [&]() -> std::string {
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    const auto number = [&](std::uint64_t max) {
      return parse_number(a, value(), max);
    };
    bool negated = false;
    if (a == "-o" || a == "--out") {
      args.out = value();
    } else if (a == "--vcd") {
      args.vcd = value();
    } else if (a == "--plan") {
      args.plan = value();
    } else if (a == "--period") {
      args.period =
          static_cast<int>(number(std::numeric_limits<int>::max()));
    } else if (a == "--min-area") {
      args.min_area = true;
    } else if (a == "--min-period") {
      args.min_period = true;
    } else if (a == "--period-then-area") {
      args.period_then_area = true;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--strict") {
      args.strict = true;
    } else if (a == "--threads") {
      // 0 means "all hardware threads"; cap explicit counts well past any
      // real machine but short of exhausting the OS thread limit.
      args.threads = static_cast<unsigned>(number(1024));
    } else if (a == "--socket") {
      args.socket = value();
    } else if (a == "--max-inflight") {
      args.max_inflight = static_cast<unsigned>(number(4096));
    } else if (a == "--default-time-budget-ms") {
      args.default_time_budget_ms =
          number(std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--admission-queue") {
      args.admission_queue = static_cast<unsigned>(number(1u << 20));
    } else if (a == "--default-deadline-ms") {
      args.default_deadline_ms =
          number(std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--watchdog-grace") {
      args.watchdog_grace = static_cast<unsigned>(number(1u << 10));
      if (*args.watchdog_grace == 0) {
        usage("--watchdog-grace must be at least 1");
      }
    } else if (a == "--write-timeout-ms") {
      args.write_timeout_ms = number(std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--cache-bytes") {
      args.cache_bytes = static_cast<std::size_t>(
          number(std::numeric_limits<std::size_t>::max()));
    } else if (a == "--time-budget-ms") {
      args.budget.time_ms = number(std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--node-limit") {
      args.budget.node_limit = static_cast<std::size_t>(
          number(std::numeric_limits<std::size_t>::max()));
    } else if (a == "--step-quota") {
      args.budget.step_quota =
          number(std::numeric_limits<std::uint64_t>::max());
    } else if (a == "--on-exhaust") {
      const std::string mode = value();
      if (mode == "fail") {
        args.fail_on_exhaust = true;
      } else if (mode == "degrade") {
        args.fail_on_exhaust = false;
      } else {
        usage("--on-exhaust must be degrade or fail");
      }
    } else if (const OptionSpec* spec = find_option(specs, a, &negated)) {
      JsonValue option;
      switch (spec->kind) {
        case OptionKind::kBool: {
          // A bare boolean flag is true; an on/off word may follow it.
          std::optional<std::string> word = inline_value;
          const auto is_word = [](const std::string& w) {
            return w == "on" || w == "off" || w == "true" || w == "false";
          };
          if (!word && i + 1 < argc && is_word(argv[i + 1])) word = argv[++i];
          if (word && (negated || !is_word(*word))) {
            usage(a + " must be on or off");
          }
          option = JsonValue(word ? *word == "on" || *word == "true"
                                  : !negated);
          break;
        }
        case OptionKind::kUint:
          option = JsonValue(static_cast<double>(number(max_option_int)));
          break;
        case OptionKind::kString: option = JsonValue(value()); break;
      }
      set_option(&args.options, spec->key, std::move(option));
    } else if (!a.empty() && a[0] == '-') {
      usage("unknown flag " + a);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// --on-exhaust=fail: a blown budget is an error, not a degraded report.
[[noreturn]] void exhausted_failure(const std::optional<ResourceUsage>& usage) {
  std::fprintf(stderr, "error: resource budget exhausted (%s)\n",
               usage ? usage->summary().c_str() : "");
  std::exit(kExitExhausted);
}

/// Runs one job in-process — the job layer, options object and budget a
/// `rtv serve` request gets — and prints the response frame the server
/// would send (--json, and always for faultsim, whose report is its JSON)
/// or the job's human-readable report.
JobOutput run_design_job(JobType type, const Args& args,
                         const JsonValue::Object& options, const Netlist& a,
                         const Netlist* b = nullptr) {
  serve::JobDesigns designs;
  designs.a = &a;
  designs.b = b;
  serve::JobEnv env;
  env.limits = serve::job_limits(args.budget);
  env.threads = args.threads.value_or(0);  // default: all hardware threads
  env.want_text = !args.json;
  const auto start = std::chrono::steady_clock::now();
  JobOutput out = serve::run_job(type, JsonValue(options), designs, env);
  if (args.json || out.text.empty()) {
    serve::JobStatsWire stats;
    stats.run_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    stats.verdict = out.verdict;
    if (out.usage) {
      stats.usage = *out.usage;
      stats.governed = true;
    }
    std::printf("%s\n", serve::render_response(args.positional[0], type, "",
                                               out.result, stats)
                            .c_str());
  } else {
    std::fputs(out.text.c_str(), stdout);
  }
  return out;
}

bool result_flag(const JobOutput& out, const char* key) {
  const JsonValue* v = out.result.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

double result_number(const JobOutput& out, const char* key) {
  const JsonValue* v = out.result.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Exit code of a governed job whose checked property is `holds`: a
/// partial (exhausted) report is never a pass, and is an error under
/// --on-exhaust=fail.
int governed_exit(const Args& args, const JobOutput& out, bool holds) {
  if (out.verdict == "exhausted") {
    if (args.fail_on_exhaust) exhausted_failure(out.usage);
    return kExitVerdictFalse;
  }
  return holds ? kExitOk : kExitVerdictFalse;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 1) usage("info needs one design");
  const Netlist n = load_design(args.positional[0]);
  std::printf("%s\n", n.summary().c_str());
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  std::printf("%s\n", g.summary().c_str());
  std::printf("junction-normal: %s, all cells preserve all-X: %s\n",
              n.is_junction_normal() ? "yes" : "no",
              n.all_cells_preserve_all_x() ? "yes" : "no");
  const auto moves = enabled_moves(n);
  std::size_t unsafe = 0;
  for (const auto& m : moves) {
    if (!classify_move(n, m).preserves_safe_replacement()) ++unsafe;
  }
  std::printf("enabled atomic moves: %zu (%zu unsafe without delay)\n",
              moves.size(), unsafe);
  return 0;
}

int cmd_convert(const Args& args) {
  if (args.positional.size() != 2) usage("convert needs <in> <out>");
  save_design(load_design(args.positional[0]), args.positional[1]);
  return 0;
}

/// Simulation through the simulate job; --vcd additionally writes the
/// waveform of the first sequence.
int cmd_simulate(const Args& args) {
  const JsonValue* inputs = find_option_value(args.options, "inputs");
  if (args.positional.size() != 1 || inputs == nullptr) {
    usage("simulate needs one design and --inputs");
  }
  const Netlist n = load_design(args.positional[0]);
  const JobOutput out =
      run_design_job(JobType::kSimulate, args, args.options, n);
  if (args.vcd) {
    const std::string& list = inputs->as_string();
    const std::string first = list.substr(0, list.find(','));
    if (out.result.find("mode")->as_string() == "cls") {
      save_vcd(cls_simulate_to_vcd(n, trits_seq_from_string(first)),
               *args.vcd);
    } else {
      const JsonValue* state = find_option_value(args.options, "state");
      save_vcd(simulate_to_vcd(n,
                               state != nullptr
                                   ? bits_from_string(state->as_string())
                                   : Bits(n.latches().size(), 0),
                               bits_seq_from_string(first)),
               *args.vcd);
    }
    std::fprintf(stderr, "wrote %s\n", args.vcd->c_str());
  }
  return kExitOk;
}

std::vector<int> solve_lags(const RetimeGraph& g, const Args& args) {
  if (args.min_area) return min_area_retime(g).lag;
  if (args.min_period) return min_period_retime_feas(g).lag;
  if (args.period) {
    const auto r = min_area_retime_with_period(g, *args.period);
    if (!r) throw Error("period " + std::to_string(*args.period) +
                        " is infeasible");
    return r->lag;
  }
  usage("pick --min-area, --min-period or --period N");
}

int cmd_retime(const Args& args) {
  if (args.positional.size() != 1) usage("retime needs one design");
  const Netlist n = load_design(args.positional[0]);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  const std::vector<int> lag = solve_lags(g, args);
  SequencedRetiming seq;
  const SafetyReport safety = analyze_lag_retiming(n, g, lag, &seq);
  std::printf("before: %s\n", g.summary().c_str());
  std::printf("after:  period %d, %zu registers\n", g.clock_period(lag),
              seq.retimed.num_latches());
  std::printf("safety: %s\n", safety.summary().c_str());
  if (args.out) save_design(seq.retimed.compacted(), *args.out);
  return 0;
}

int cmd_validate(const Args& args) {
  if (args.positional.size() != 1) usage("validate needs one design");
  const Netlist n = load_design(args.positional[0]);
  const JobOutput out =
      run_design_job(JobType::kValidate, args, args.options, n);
  return governed_exit(args, out,
                       result_flag(out, "theorems_hold") &&
                           result_flag(out, "cls_equivalent"));
}

/// Structured static analysis: structural diagnostics, the semantic
/// ternary-dataflow passes (RTV3xx, on by default) plus, with --plan, the
/// Section-4 verdict of a retiming-move plan. Exit 0 when clean, 1 on
/// errors (or on warnings too with --strict). .rnl designs are loaded
/// without the loader's own validation so every defect is reported, not
/// just the first one check_valid would throw on.
int cmd_lint(const Args& args) {
  if (args.positional.size() != 1) usage("lint needs one design");
  const std::string& path = args.positional[0];
  const Netlist n = ends_with(path, ".rnl") ? load_rnl(path, false)
                                            : load_design(path);
  JsonValue::Object options = args.options;
  if (args.plan) {
    set_option(&options, "plan", JsonValue(read_text_file(*args.plan)));
  }
  const JobOutput out = run_design_job(JobType::kLint, args, options, n);
  if (result_number(out, "errors") > 0) return kExitVerdictFalse;
  return args.strict && result_number(out, "warnings") > 0 ? kExitVerdictFalse
                                                          : kExitOk;
}

int cmd_audit(const Args& args) {
  if (args.positional.size() != 1) usage("audit needs one design");
  const Netlist n = load_design(args.positional[0]);
  for (const RetimingMove& move : enabled_moves(n)) {
    const MoveClass cls = classify_move(n, move);
    std::printf("%-20s %-8s %-10s %s\n", n.name(move.element).c_str(),
                cell_kind_name(n.kind(move.element)),
                to_string(move.direction),
                cls.preserves_safe_replacement() ? "safe (Cor 4.4)"
                                                 : "needs delay (Thm 4.5)");
  }
  return 0;
}

int cmd_redundancy(const Args& args) {
  if (args.positional.size() != 1) usage("redundancy needs one design");
  const Netlist n = load_design(args.positional[0]);
  const RedundancyRemovalResult r = remove_cls_redundancies(n);
  std::printf("tied %zu net(s), swept %zu node(s); gates %zu -> %zu\n",
              r.faults_tied, r.nodes_swept, r.gates_before, r.gates_after);
  if (args.out) save_design(r.optimized, *args.out);
  return 0;
}

int cmd_flow(const Args& args) {
  if (args.positional.size() != 1) usage("flow needs one design");
  const Netlist n = load_design(args.positional[0]);
  FlowOptions opt;
  if (args.min_period) opt.objective = FlowOptions::Objective::kMinPeriod;
  if (args.period_then_area || args.period) {
    opt.objective = FlowOptions::Objective::kMinAreaAtMinPeriod;
  }
  opt.verify = serve::decode_verify_options(JsonValue(args.options));
  opt.budget = serve::job_limits(args.budget);
  const FlowReport r = run_synthesis_flow(n, opt);
  std::printf("%s\n", r.summary().c_str());
  if (r.verdict == Verdict::kExhausted && args.fail_on_exhaust) {
    exhausted_failure(r.usage);
  }
  if (args.out && r.accepted()) save_design(r.optimized, *args.out);
  return r.accepted() ? kExitOk : kExitVerdictFalse;
}

int cmd_reset(const Args& args) {
  if (args.positional.size() != 1) usage("reset needs one design");
  const Netlist n = load_design(args.positional[0]);
  const auto seq = find_cls_reset_sequence(n);
  if (!seq) {
    std::printf("no CLS reset sequence within the search bounds — a\n"
                "conservative three-valued simulator never sees this design\n"
                "initialized (Section 5's X-pessimism in the flesh)\n");
    return 1;
  }
  std::printf("CLS reset sequence of length %zu: %s\n", seq->size(),
              sequence_to_string(*seq).c_str());
  return 0;
}

/// Batch stuck-at fault simulation through the multi-threaded engine; the
/// report is the job's JSON response frame, so coverage runs are
/// scriptable.
int cmd_faultsim(const Args& args) {
  if (args.positional.size() != 1) usage("faultsim needs one design");
  const Netlist n = load_design(args.positional[0]);
  const JobOutput out =
      run_design_job(JobType::kFaultSim, args, args.options, n);
  if (out.verdict == "exhausted" && args.fail_on_exhaust) {
    exhausted_failure(out.usage);
  }
  return kExitOk;
}

int cmd_serve(const Args& args) {
  if (!args.positional.empty()) {
    usage("serve takes no positional arguments (designs arrive as jobs)");
  }
  serve::ServeOptions opt;
  opt.threads = args.threads.value_or(0);
  opt.max_inflight = args.max_inflight.value_or(0);
  opt.admission_queue = args.admission_queue.value_or(0);
  opt.default_time_budget_ms = args.default_time_budget_ms.value_or(0);
  opt.default_deadline_ms = args.default_deadline_ms.value_or(0);
  if (args.watchdog_grace) opt.watchdog_grace = *args.watchdog_grace;
  if (args.write_timeout_ms) opt.write_timeout_ms = *args.write_timeout_ms;
  if (args.cache_bytes) opt.cache_bytes = *args.cache_bytes;
  serve::Server server(opt);
  if (args.socket) {
    std::fprintf(stderr, "rtv serve: listening on %s\n", args.socket->c_str());
    server.serve_socket(*args.socket);
  } else {
    // No socket: NDJSON over stdin/stdout, one response line per request
    // line. Exits on EOF or a shutdown request, after draining.
    server.serve_stream(std::cin, std::cout);
  }
  const serve::ServeStats s = server.stats();
  std::fprintf(stderr,
               "rtv serve: drained; %llu jobs accepted, %llu ok, %llu "
               "errors, %llu rejected (%llu shed), %llu watchdog kills "
               "(%llu wedged), cache %llu hits / %llu misses\n",
               static_cast<unsigned long long>(s.jobs_accepted),
               static_cast<unsigned long long>(s.jobs_done),
               static_cast<unsigned long long>(s.jobs_failed),
               static_cast<unsigned long long>(s.jobs_rejected),
               static_cast<unsigned long long>(s.jobs_shed),
               static_cast<unsigned long long>(s.watchdog_kills),
               static_cast<unsigned long long>(s.watchdog_wedged),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses));
  return kExitOk;
}

/// CLS equivalence of two concrete designs (Thm 5.1) through any backend.
/// Exit 0 when equivalent, 1 when distinguishable or undecided.
int cmd_cls_equiv(const Args& args) {
  if (args.positional.size() != 2) usage("cls-equiv needs two designs");
  const Netlist a = load_design(args.positional[0]);
  const Netlist b = load_design(args.positional[1]);
  const JobOutput out =
      run_design_job(JobType::kClsEquivalence, args, args.options, a, &b);
  return governed_exit(args, out, result_flag(out, "equivalent"));
}

int cmd_equiv(const Args& args) {
  if (args.positional.size() != 2) usage("equiv needs two designs");
  const Netlist c = load_design(args.positional[0]);
  const Netlist d = load_design(args.positional[1]);
  SymbolicImplication sym(c, d);
  const bool holds = sym.implies();
  std::printf("%s ⊑ %s: %s\n", args.positional[0].c_str(),
              args.positional[1].c_str(), holds ? "holds" : "fails");
  if (!holds) {
    const int n = sym.min_delay_for_implication(32);
    if (n >= 0) {
      std::printf("least n with C^n ⊑ D: %d (safe after %d settle cycles)\n",
                  n, n);
    } else {
      std::printf("no delay makes C^n ⊑ D hold (not a retiming pair?)\n");
    }
  }
  return holds ? 0 : 1;
}

int run(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(cmd, argc, argv, 2);
  if (cmd == "info") return cmd_info(args);
  if (cmd == "convert") return cmd_convert(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "retime") return cmd_retime(args);
  if (cmd == "validate") return cmd_validate(args);
  if (cmd == "lint") return cmd_lint(args);
  if (cmd == "audit") return cmd_audit(args);
  if (cmd == "redundancy") return cmd_redundancy(args);
  if (cmd == "flow") return cmd_flow(args);
  if (cmd == "reset") return cmd_reset(args);
  if (cmd == "cls-equiv") return cmd_cls_equiv(args);
  if (cmd == "equiv") return cmd_equiv(args);
  if (cmd == "faultsim") return cmd_faultsim(args);
  if (cmd == "serve") return cmd_serve(args);
  usage("unknown command '" + cmd + "'");
}

}  // namespace
}  // namespace rtv::cli

int main(int argc, char** argv) {
  // Opt-in fault-injection harness: RTV_FAULT_INJECT=N trips budget
  // exhaustion at the N-th checkpoint (see util/fault_inject.hpp). A no-op
  // unless the variable is set.
  rtv::fault_inject::arm_from_env();
  // Most-derived classes first — every subclass gets its documented exit
  // code, the Error base is the catch-all.
  try {
    return rtv::cli::run(argc, argv);
  } catch (const rtv::serve::ProtocolError& e) {
    // The job layer rejected an option value: a bad command line.
    std::fprintf(stderr, "error: %s\n", e.what());
    return rtv::cli::kExitUsage;
  } catch (const rtv::InternalError& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return rtv::cli::kExitInternal;
  } catch (const rtv::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return rtv::cli::kExitParse;
  } catch (const rtv::CapacityError& e) {
    std::fprintf(stderr, "capacity error: %s\n", e.what());
    return rtv::cli::kExitCapacity;
  } catch (const rtv::IoError& e) {
    std::fprintf(stderr, "io error: %s\n", e.what());
    return rtv::cli::kExitIo;
  } catch (const rtv::InvalidArgument& e) {
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return rtv::cli::kExitInvalidArgument;
  } catch (const rtv::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return rtv::cli::kExitVerdictFalse;
  }
}
