// verdictbench — design text in, verdict out, measured end to end.
//
//   verdictbench --workload validate|equiv|serve --seed N --seconds S
//                --trace 0|1 [--workdir DIR] [--plant-wrong-answer]
//
// Run from the repository root (the corpus reads examples/*.rnl). Prints a
// human-readable report, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer split with --trace 1. --workdir holds the serve
// socket and the trace file. --plant-wrong-answer corrupts one known answer
// so the self-check can confirm the checks catch it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: verdictbench --workload validate|equiv|serve "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--plant-wrong-answer]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  vb::RunConfig config;
  std::string workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      config.workload = value();
    } else if (a == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      config.trace = value() == "1";
    } else if (a == "--workdir") {
      workdir = value();
    } else if (a == "--plant-wrong-answer") {
      config.plant_wrong_answer = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (config.seconds <= 0) usage("--seconds must be positive");
  config.workdir = workdir;
  if (config.trace) {
    config.trace_path = workdir + "/verdictbench-trace-" + config.workload + ".json";
  }

  vb::RunResult result;
  try {
    if (config.workload == "validate") {
      result = vb::run_validate(config);
    } else if (config.workload == "equiv") {
      result = vb::run_equiv(config);
    } else if (config.workload == "serve") {
      result = vb::run_serve(config);
    } else {
      usage("unknown workload '" + config.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verdictbench: %s\n", e.what());
    return 1;
  }

  vb::fill_missing(result, config.trace);
  vb::RunResult printed = result;
  printed.metrics.clear();
  for (const auto& [name, unit] :
       config.trace ? vb::per_layer_metrics() : vb::end_to_end_metrics()) {
    printed.metrics[name] = result.metrics[name];
  }
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  if (config.trace && !config.trace_path.empty()) {
    std::printf("spans written to %s\n", config.trace_path.c_str());
  }
  std::printf("%s\n", vb::render_result_json(printed, result.failed == 0).c_str());
  return 0;
}
