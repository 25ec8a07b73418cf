// Experiment: `rtv serve` throughput and latency under concurrent clients.
//
// The report drives 1..64 concurrent clients through a real Unix-domain
// socket (the production transport, not handle_line), each client running
// a closed loop over a fixed lint/simulate/faultsim mix, and records
// jobs/sec plus p50/p95/p99 latency per sweep point. Two contracts; the
// binary exits non-zero when either fails:
//
//  1. Correctness under concurrency (checked in-run) — every request id is
//     answered exactly once, every response validates against the wire
//     schema with ok:true, no job fails, and each job type's result JSON
//     is byte-identical across all clients and sweep points (the service
//     is deterministic).
//  2. Throughput and the design cache (gated rows of BENCH_serve.json, the
//     shared row schema of bench_util.hpp) — jobs/sec is positive at every
//     sweep point, and a warm server (default cache) beats a cold server
//     (cache_bytes=0, every job re-parses) by at least kMinCacheSpeedup on
//     a parse-dominated lint workload.
//
// Under RTV_BENCH_SMOKE=1 the sweep shrinks (CI smoke).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "line_client.hpp"
#include "gen/datapath.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

namespace {

using namespace rtv;
using namespace rtv::serve;
using Clock = std::chrono::steady_clock;

using bench::check;
using bench::LineClient;
using bench::ms_since;

/// Warm must beat cold by at least this factor on the cache workload.
constexpr double kMinCacheSpeedup = 1.3;

// ---------------------------------------------------------------------------
// Workload frames.

std::string design_field(const std::string& rnl) {
  return "\"design\": \"" + json_escape(rnl) + "\"";
}

/// '.'-separated input vectors, alternating all-0 / all-1, `cycles` long.
std::string alternating_inputs(std::size_t width, unsigned cycles) {
  std::string out;
  for (unsigned t = 0; t < cycles; ++t) {
    if (t != 0) out.push_back('.');
    out.append(width, (t % 2 == 0) ? '0' : '1');
  }
  return out;
}

struct JobKind {
  std::string type;
  std::string options;  // rendered JSON object, "" for none
};

std::string frame_for(const JobKind& kind, const std::string& id,
                      const std::string& design_json) {
  std::string f = "{\"rtv_serve\": 1, \"id\": \"" + id + "\", \"type\": \"" +
                  kind.type + "\", " + design_json;
  if (!kind.options.empty()) f += ", \"options\": " + kind.options;
  f += "}";
  return f;
}

struct ParsedResponse {
  bool ok = false;
  std::string id;
  std::string type;
  std::string verdict;
  std::string result_json;  // canonical write_json of "result"
};

ParsedResponse parse_and_validate(const std::string& line) {
  const JsonValue doc = parse_json(line);
  const std::string problem = validate_response(doc);
  check(problem.empty(), "response failed wire validation: " + problem +
                             " in: " + line);
  ParsedResponse out;
  out.ok = doc.find("ok")->as_bool();
  out.id = doc.find("id")->as_string();
  if (const JsonValue* t = doc.find("type")) out.type = t->as_string();
  if (const JsonValue* stats = doc.find("stats")) {
    if (const JsonValue* v = stats->find("verdict")) {
      out.verdict = v->as_string();
    }
  }
  if (const JsonValue* result = doc.find("result")) {
    out.result_json = write_json(*result);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sweep: N closed-loop clients over the socket.

struct SweepPoint {
  std::uint64_t jobs = 0;
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

SweepPoint run_sweep_point(const std::string& socket_path,
                           const std::string& design_json,
                           const std::vector<JobKind>& mix, unsigned clients,
                           unsigned jobs_per_client,
                           std::map<std::string, std::string>* results_by_type) {
  std::vector<std::thread> threads;
  std::vector<double> all_latencies;
  std::mutex merge_mutex;
  std::set<std::string> answered_ids;

  const auto sweep_start = Clock::now();
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client(socket_path);
      std::vector<double> latencies;
      std::vector<ParsedResponse> responses;
      latencies.reserve(jobs_per_client);
      for (unsigned i = 0; i < jobs_per_client; ++i) {
        const JobKind& kind = mix[(c + i) % mix.size()];
        const std::string id = indexed_name(indexed_name("c", c) + "-", i);
        const auto start = Clock::now();
        client.send_line(frame_for(kind, id, design_json));
        const std::string line = client.recv_line();
        latencies.push_back(ms_since(start));
        ParsedResponse r = parse_and_validate(line);
        check(r.ok, "job " + id + " failed: " + line);
        check(r.id == id, "closed-loop client got id " + r.id +
                              " while waiting for " + id);
        responses.push_back(std::move(r));
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      all_latencies.insert(all_latencies.end(), latencies.begin(),
                           latencies.end());
      for (ParsedResponse& r : responses) {
        check(answered_ids.insert(r.id).second,
              "id " + r.id + " answered more than once");
        // Determinism: one canonical result per job type, across every
        // client and every sweep point.
        auto [it, inserted] =
            results_by_type->emplace(r.type, r.result_json);
        check(inserted || it->second == r.result_json,
              "nondeterministic " + r.type + " result: " + r.result_json +
                  " vs " + it->second);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SweepPoint point;
  point.jobs = std::uint64_t{clients} * jobs_per_client;
  point.wall_ms = ms_since(sweep_start);
  point.jobs_per_sec =
      static_cast<double>(point.jobs) / (point.wall_ms / 1000.0);
  std::sort(all_latencies.begin(), all_latencies.end());
  point.p50_ms = bench::percentile(all_latencies, 0.50);
  point.p95_ms = bench::percentile(all_latencies, 0.95);
  point.p99_ms = bench::percentile(all_latencies, 0.99);
  check(answered_ids.size() == point.jobs,
        "expected " + std::to_string(point.jobs) + " answered ids, got " +
            std::to_string(answered_ids.size()));
  return point;
}

// ---------------------------------------------------------------------------
// Cache contract: warm server vs cold (cache_bytes=0) on a big design.

struct CacheResult {
  std::uint64_t jobs = 0;
  double warm_jobs_per_sec = 0.0;
  double cold_jobs_per_sec = 0.0;
  double speedup = 0.0;
};

double lint_loop_jobs_per_sec(Server& server, const std::string& design_json,
                              unsigned jobs) {
  // handle_line: same dispatch/handler path as the socket, minus transport
  // noise — exactly what isolates parse cost.
  const auto start = Clock::now();
  for (unsigned i = 0; i < jobs; ++i) {
    const std::string response = server.handle_line(frame_for(
        JobKind{"lint", ""}, "lint-" + std::to_string(i), design_json));
    const ParsedResponse r = parse_and_validate(response);
    check(r.ok, "cache-workload lint failed: " + response);
  }
  return static_cast<double>(jobs) / (ms_since(start) / 1000.0);
}

CacheResult run_cache_contrast(bool smoke) {
  const Netlist big = controller_datapath(smoke ? 24 : 96);
  const std::string design_json = design_field(write_rnl(big));
  const unsigned jobs = smoke ? 24 : 200;

  ServeOptions warm_opts;
  warm_opts.threads = 1;  // serial: measure per-job cost, not scheduling
  Server warm(warm_opts);

  ServeOptions cold_opts;
  cold_opts.threads = 1;
  cold_opts.cache_bytes = 0;  // retention disabled: every job re-parses
  Server cold(cold_opts);

  CacheResult out;
  out.jobs = jobs;
  // Warm-up both servers once so the warm one holds the design and
  // first-touch allocation noise hits neither timed loop.
  lint_loop_jobs_per_sec(warm, design_json, 2);
  lint_loop_jobs_per_sec(cold, design_json, 2);
  out.warm_jobs_per_sec = lint_loop_jobs_per_sec(warm, design_json, jobs);
  out.cold_jobs_per_sec = lint_loop_jobs_per_sec(cold, design_json, jobs);
  out.speedup = out.warm_jobs_per_sec / out.cold_jobs_per_sec;

  const ServeStats warm_stats = warm.stats();
  check(warm_stats.cache.entries == 1,
        "warm server should hold exactly the one design");
  check(warm_stats.cache.hits >= jobs,
        "warm server should have served the timed loop from cache");
  const ServeStats cold_stats = cold.stats();
  check(cold_stats.cache.hits == 0 && cold_stats.cache.entries == 0,
        "cold server must not retain or hit anything");
  return out;
}

// ---------------------------------------------------------------------------
// Report.

void report() {
  const bool smoke = bench::smoke_mode();
  bench::heading("serve_throughput",
                 "rtv serve: concurrent-client throughput and cache value");

  // The sweep design: a small controller+datapath, cheap enough that the
  // mix is dominated by dispatch + the service machinery, not one giant
  // analysis (latency percentiles then actually describe the service).
  const Netlist design = controller_datapath(smoke ? 4 : 8);
  const std::string design_json = design_field(write_rnl(design));
  const std::string inputs =
      alternating_inputs(design.primary_inputs().size(), 4);
  const std::vector<JobKind> mix = {
      {"lint", ""},
      {"simulate", "{\"inputs\": \"" + inputs + "\", \"mode\": \"cls\"}"},
      {"faultsim", "{\"tests\": 4, \"cycles\": 4, \"seed\": 7}"},
  };

  ServeOptions options;
  options.threads = smoke ? 2 : 4;
  options.max_inflight = 64;
  Server server(options);
  const std::string socket_path = bench::unique_socket_path("serve");
  std::thread server_thread([&] { server.serve_socket(socket_path); });

  const std::vector<unsigned> client_counts =
      smoke ? std::vector<unsigned>{1, 2, 4}
            : std::vector<unsigned>{1, 2, 4, 8, 16, 32, 64};
  const unsigned jobs_per_client = smoke ? 9 : 30;

  bench::Report report("serve_throughput");
  std::map<std::string, std::string> results_by_type;
  for (unsigned clients : client_counts) {
    const std::string w = "clients=" + std::to_string(clients);
    report.gate({w, "serve", "jobs_per_sec"}, bench::Gate::above(0.0));
    const SweepPoint p =
        run_sweep_point(socket_path, design_json, mix, clients,
                        jobs_per_client, &results_by_type);
    std::ostringstream os;
    os.precision(4);
    os << "  " << w << "  jobs=" << p.jobs << "  jobs/s=" << p.jobs_per_sec
       << "  p50=" << p.p50_ms << "ms  p95=" << p.p95_ms
       << "ms  p99=" << p.p99_ms << "ms";
    bench::line(os.str());
    report.add({w, "serve", "jobs"}, static_cast<double>(p.jobs), "count");
    report.add({w, "serve", "jobs_per_sec"}, p.jobs_per_sec, "1/s");
    report.add({w, "serve", "p50_ms"}, p.p50_ms, "ms");
    report.add({w, "serve", "p95_ms"}, p.p95_ms, "ms");
    report.add({w, "serve", "p99_ms"}, p.p99_ms, "ms");
  }
  check(results_by_type.size() == mix.size(),
        "expected one canonical result per job type");
  const auto faultsim = results_by_type.find("faultsim");
  check(faultsim != results_by_type.end() &&
            faultsim->second.find("\"detected\"") != std::string::npos,
        "faultsim result should carry a detection count");

  {
    LineClient control(socket_path);
    control.send_line(
        "{\"rtv_serve\": 1, \"id\": \"bye\", \"type\": \"shutdown\"}");
    const ParsedResponse r = parse_and_validate(control.recv_line());
    check(r.ok, "shutdown request failed");
  }
  server_thread.join();
  const ServeStats final_stats = server.stats();
  check(final_stats.jobs_failed == 0, "no job may fail in this workload");

  bench::line("");
  report.gate({"cache", "serve", "speedup"},
              bench::Gate::min(kMinCacheSpeedup));
  const CacheResult cache = run_cache_contrast(smoke);
  {
    std::ostringstream os;
    os.precision(4);
    os << "  cache: warm=" << cache.warm_jobs_per_sec
       << " jobs/s  cold=" << cache.cold_jobs_per_sec
       << " jobs/s  speedup=" << cache.speedup << "x  (contract >= "
       << kMinCacheSpeedup << "x)";
    bench::line(os.str());
  }
  report.add({"cache", "serve", "jobs"}, static_cast<double>(cache.jobs),
             "count");
  report.add({"cache", "serve", "warm_jobs_per_sec"}, cache.warm_jobs_per_sec,
             "1/s");
  report.add({"cache", "serve", "cold_jobs_per_sec"}, cache.cold_jobs_per_sec,
             "1/s");
  report.add({"cache", "serve", "speedup"}, cache.speedup, "x");
  report.emit("BENCH_serve.json");
}

// ---------------------------------------------------------------------------
// google-benchmark timings: the in-process dispatch path, per job type.

void BM_handle_line_lint(benchmark::State& state) {
  ServeOptions options;
  options.threads = 1;
  Server server(options);
  const std::string design_json =
      design_field(write_rnl(controller_datapath(8)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(frame_for(
        JobKind{"lint", ""}, indexed_name("b", i++), design_json)));
  }
}
BENCHMARK(BM_handle_line_lint);

void BM_handle_line_simulate(benchmark::State& state) {
  ServeOptions options;
  options.threads = 1;
  Server server(options);
  const Netlist n = controller_datapath(8);
  const std::string design_json = design_field(write_rnl(n));
  const std::string opts = "{\"inputs\": \"" +
                           alternating_inputs(n.primary_inputs().size(), 8) +
                           "\", \"mode\": \"cls\"}";
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(frame_for(
        JobKind{"simulate", opts}, indexed_name("b", i++), design_json)));
  }
}
BENCHMARK(BM_handle_line_simulate);

}  // namespace

RTV_BENCH_MAIN(report)
