// Experiment: `rtv serve` behaviour past saturation — does goodput hold
// and does latency stay honest when the offered load exceeds capacity?
//
// The report drives an open-loop paced workload (clients send on a timer,
// they do not wait for responses) through a real Unix-domain socket at
// 1x, 2x and 4x the server's nominal capacity. Jobs are the deterministic
// chaos_spin_cooperative_ms simulate handler, so per-job service time is
// known and the measurement describes the admission machinery, not an
// analysis kernel. Contracts (the binary exits non-zero when any fails);
// 1 is checked in-run, 2-5 are gated rows of BENCH_serve_overload.json
// (the shared row schema, bench_util.hpp):
//
//  1. Every request id is answered exactly once — as a schema-valid
//     success or a schema-valid "overloaded" rejection. Nothing is
//     dropped, nothing is answered twice, no client blocks forever, and
//     the server's counters agree at quiescence.
//  2. Past saturation the server sheds: at >= 2x offered load the shed
//     count is positive (bounded queue, not unbounded latency).
//  3. Accepted jobs stay fast: p99 completion latency of successful jobs
//     stays under kMaxAcceptedP99Ms at every load point — the bounded
//     admission queue caps how long an accepted job can have waited.
//  4. Goodput does not collapse: successful jobs/sec is positive at every
//     load point, and at 4x load at least kMinGoodputRatio of 1x.
//  5. The server stays observable: a "health" probe sent mid-flood at 4x
//     is answered inline in under kMaxHealthMs.
//
// Under RTV_BENCH_SMOKE=1 the pacing windows shrink (CI smoke).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "line_client.hpp"
#include "gen/paper_circuits.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

namespace {

using namespace rtv;
using namespace rtv::serve;
using Clock = std::chrono::steady_clock;

/// Accepted-job p99 latency cap at every load point. Queue depth x
/// service time bounds the wait, so this is generous headroom for
/// scheduler noise, not a tuned number.
constexpr double kMaxAcceptedP99Ms = 250.0;
/// Goodput at 4x offered load must be at least this fraction of 1x.
constexpr double kMinGoodputRatio = 0.5;
/// A health probe mid-flood must answer within this.
constexpr double kMaxHealthMs = 1000.0;
/// Deterministic per-job service time (cooperative chaos spin).
constexpr std::uint64_t kServiceMs = 5;

using bench::check;
using bench::LineClient;
using bench::ms_since;

// ---------------------------------------------------------------------------
// Workload.

std::string spin_frame(const std::string& id, const std::string& design) {
  std::ostringstream os;
  os << "{\"rtv_serve\": 1, \"id\": \"" << id
     << "\", \"type\": \"simulate\", \"design\": \"" << design
     << "\", \"options\": {\"chaos_spin_cooperative_ms\": " << kServiceMs
     << "}}";
  return os.str();
}

/// One measured load point: paced open-loop offered load at `multiple`
/// times nominal capacity, split across `clients` connections.
struct LoadPoint {
  double multiple = 0.0;
  std::uint64_t offered = 0;
  double offered_per_sec = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  double wall_ms = 0.0;
  double goodput_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double health_ms = 0.0;  ///< mid-flood probe; 0 when not probed
};

LoadPoint run_load_point(const std::string& socket_path,
                         const std::string& design, double capacity_per_sec,
                         double multiple, double window_sec,
                         bool probe_health) {
  const unsigned clients = 4;
  const double rate = capacity_per_sec * multiple;
  const std::uint64_t per_client = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(rate * window_sec /
                                    static_cast<double>(clients)));
  const double interval_ms =
      1000.0 * static_cast<double>(clients) / rate;

  std::mutex merge_mutex;
  std::vector<double> ok_latencies;
  std::uint64_t ok_count = 0;
  std::uint64_t shed_count = 0;

  const auto point_start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client(socket_path);
      std::map<std::string, Clock::time_point> sent_at;
      // Paced sender: one frame per interval, never waiting for answers —
      // offered load is a property of the clock, not of server speed.
      std::thread sender([&] {
        auto next = Clock::now();
        for (std::uint64_t j = 0; j < per_client; ++j) {
          const std::string sender_id = indexed_name(
              indexed_name("m", static_cast<int>(multiple * 100)) + "-c", c);
          const std::string id = indexed_name(sender_id + "-", j);
          {
            std::lock_guard<std::mutex> lk(merge_mutex);
            sent_at.emplace(id, Clock::now());
          }
          client.send_line(spin_frame(id, design));
          next += std::chrono::microseconds(
              static_cast<std::int64_t>(interval_ms * 1000.0));
          std::this_thread::sleep_until(next);
        }
      });

      std::vector<double> latencies;
      std::uint64_t oks = 0;
      std::uint64_t sheds = 0;
      std::map<std::string, int> seen;
      for (std::uint64_t j = 0; j < per_client; ++j) {
        const std::string line = client.recv_line();
        const JsonValue doc = parse_json(line);
        const std::string problem = validate_response(doc);
        check(problem.empty(),
              "response failed wire validation: " + problem + " in: " + line);
        const std::string id = doc.find("id")->as_string();
        check(++seen[id] == 1, "duplicate response for id " + id);
        Clock::time_point t0;
        {
          std::lock_guard<std::mutex> lk(merge_mutex);
          const auto it = sent_at.find(id);
          check(it != sent_at.end(), "response for an id never sent: " + id);
          t0 = it->second;
        }
        if (doc.find("ok")->as_bool()) {
          ++oks;
          latencies.push_back(ms_since(t0));
        } else {
          const JsonValue* error = doc.find("error");
          check(error->find("code")->as_string() == "overloaded",
                "rejection must be overloaded, got: " + line);
          check(error->find("retry_after_ms") != nullptr,
                "overloaded rejection must carry retry_after_ms: " + line);
          ++sheds;
        }
      }
      sender.join();
      std::lock_guard<std::mutex> lk(merge_mutex);
      ok_count += oks;
      shed_count += sheds;
      ok_latencies.insert(ok_latencies.end(), latencies.begin(),
                          latencies.end());
    });
  }

  double health_ms = 0.0;
  if (probe_health) {
    // Mid-flood liveness probe on its own connection: answered inline on
    // the reader thread, so saturation must not delay it.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(window_sec * 300.0)));
    LineClient probe(socket_path);
    const auto t0 = Clock::now();
    probe.send_line("{\"rtv_serve\": 1, \"id\": \"hp\", \"type\": \"health\"}");
    const JsonValue doc = parse_json(probe.recv_line());
    check(validate_response(doc).empty() && doc.find("ok")->as_bool(),
          "health probe failed mid-flood");
    health_ms = ms_since(t0);
  }
  for (std::thread& t : threads) t.join();

  LoadPoint point;
  point.multiple = multiple;
  point.offered = std::uint64_t{clients} * per_client;
  point.wall_ms = ms_since(point_start);
  point.offered_per_sec =
      static_cast<double>(point.offered) / (point.wall_ms / 1000.0);
  point.ok = ok_count;
  point.shed = shed_count;
  point.goodput_per_sec =
      static_cast<double>(ok_count) / (point.wall_ms / 1000.0);
  std::sort(ok_latencies.begin(), ok_latencies.end());
  point.p50_ms = bench::percentile(ok_latencies, 0.50);
  point.p99_ms = bench::percentile(ok_latencies, 0.99);
  point.health_ms = health_ms;
  check(point.ok + point.shed == point.offered,
        "answered " + std::to_string(point.ok + point.shed) + " of " +
            std::to_string(point.offered) + " offered jobs");
  return point;
}

// ---------------------------------------------------------------------------
// Report.

void report() {
  const bool smoke = bench::smoke_mode();
  bench::heading("serve_overload",
                 "rtv serve: load shedding and goodput past saturation");

  ServeOptions options;
  options.threads = 4;
  options.max_inflight = 2;
  options.admission_queue = 4;
  options.chaos_hooks = true;  // deterministic kServiceMs spin jobs
  Server server(options);
  const std::string socket_path = bench::unique_socket_path("overload");
  std::thread server_thread([&] { server.serve_socket(socket_path); });

  // Nominal capacity: slots / service time. The spin job sleeps in 1ms
  // slices, so real service time runs slightly over kServiceMs — using the
  // nominal value keeps "1x" a little above true capacity, which is
  // exactly the regime admission control is for.
  const double capacity_per_sec =
      1000.0 / static_cast<double>(kServiceMs) * options.max_inflight;
  const double window_sec = smoke ? 1.0 : 2.5;
  const std::string design = json_escape(write_rnl(figure1_original()));

  bench::Report report("serve_overload");
  std::vector<LoadPoint> points;
  for (const double multiple : {1.0, 2.0, 4.0}) {
    const std::string w =
        "load=" + std::to_string(static_cast<int>(multiple)) + "x";
    report.gate({w, "serve", "p99_ms"}, bench::Gate::max(kMaxAcceptedP99Ms));
    report.gate({w, "serve", "goodput_per_sec"}, bench::Gate::above(0.0));
    if (multiple >= 2.0) {
      // Shedding past saturation: the queue is bounded.
      report.gate({w, "serve", "shed"}, bench::Gate::min(1.0));
    }
    if (multiple == 4.0) {
      report.gate({w, "serve", "health_ms"}, bench::Gate::below(kMaxHealthMs));
    }
    points.push_back(run_load_point(socket_path, design, capacity_per_sec,
                                    multiple, window_sec,
                                    /*probe_health=*/multiple == 4.0));
    const LoadPoint& p = points.back();
    std::ostringstream os;
    os.precision(4);
    os << "  " << w << "  offered=" << p.offered << " ("
       << p.offered_per_sec << "/s)  ok=" << p.ok << "  shed=" << p.shed
       << "  goodput=" << p.goodput_per_sec << "/s  p50=" << p.p50_ms
       << "ms  p99=" << p.p99_ms << "ms";
    if (p.health_ms > 0.0) os << "  health=" << p.health_ms << "ms";
    bench::line(os.str());
    report.add({w, "serve", "offered"}, static_cast<double>(p.offered),
               "count");
    report.add({w, "serve", "offered_per_sec"}, p.offered_per_sec, "1/s");
    report.add({w, "serve", "ok"}, static_cast<double>(p.ok), "count");
    report.add({w, "serve", "shed"}, static_cast<double>(p.shed), "count");
    report.add({w, "serve", "goodput_per_sec"}, p.goodput_per_sec, "1/s");
    report.add({w, "serve", "p50_ms"}, p.p50_ms, "ms");
    report.add({w, "serve", "p99_ms"}, p.p99_ms, "ms");
    if (p.health_ms > 0.0) {
      report.add({w, "serve", "health_ms"}, p.health_ms, "ms");
    }
  }

  {
    LineClient control(socket_path);
    control.send_line(
        "{\"rtv_serve\": 1, \"id\": \"bye\", \"type\": \"shutdown\"}");
    const JsonValue doc = parse_json(control.recv_line());
    check(validate_response(doc).empty() && doc.find("ok")->as_bool(),
          "shutdown request failed");
  }
  server_thread.join();

  report.gate({"load=4x/1x", "serve", "goodput_ratio"},
              bench::Gate::min(kMinGoodputRatio));
  report.add({"load=4x/1x", "serve", "goodput_ratio"},
             points.back().goodput_per_sec / points.front().goodput_per_sec,
             "x");

  const ServeStats stats = server.stats();
  check(stats.jobs_shed > 0, "server stats must record the shedding");
  check(stats.jobs_accepted == stats.jobs_done + stats.jobs_failed,
        "counter invariant broken at quiescence");
  bench::line("");
  report.emit("BENCH_serve_overload.json");
}

}  // namespace

RTV_BENCH_MAIN(report)
