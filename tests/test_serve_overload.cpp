// Overload resilience of the serve subsystem: admission control and load
// shedding, deadline propagation with in-queue expiry, the stuck-job
// watchdog (kill, quarantine, recovery), slow-reader write timeouts, and a
// chaos client throwing malformed traffic and floods at a real socket.
// Everything here drives the same Server the production CLI runs; the
// chaos_* simulate handlers are gated behind ServeOptions::chaos_hooks and
// give the tests deterministic slot occupancy.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/paper_circuits.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"
#include "util/fault_inject.hpp"

namespace rtv {
namespace {

using serve::ErrorCode;
using serve::Server;
using serve::ServeOptions;
using serve::ServeStats;
using Clock = std::chrono::steady_clock;

std::string toggle_text() { return write_rnl(testing::toggle_circuit()); }

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

/// A slot-occupying simulate job: spins for `ms` holding its slot.
/// Cooperative spins poll their CancellationToken; uncooperative ones
/// emulate a wedged backend that ignores it.
std::string spin_frame(const std::string& id, std::uint64_t ms,
                       bool cooperative, std::uint64_t deadline_ms = 0) {
  std::ostringstream os;
  os << "{\"rtv_serve\":1,\"id\":\"" << id << "\",\"type\":\"simulate\","
     << design_field(toggle_text()) << ",\"options\":{\""
     << (cooperative ? "chaos_spin_cooperative_ms" : "chaos_spin_ms")
     << "\":" << ms << "}";
  if (deadline_ms != 0) os << ",\"deadline_ms\":" << deadline_ms;
  os << "}";
  return os.str();
}

ServeOptions chaos_server_options() {
  ServeOptions options;
  options.threads = 4;
  options.max_inflight = 1;
  options.admission_queue = 1;
  options.chaos_hooks = true;
  return options;
}

/// Polls `predicate` on the server's stats until it holds or `budget_ms`
/// elapses; returns whether it held.
bool wait_for(const Server& server, std::uint64_t budget_ms,
              const std::function<bool(const ServeStats&)>& predicate) {
  const auto until = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < until) {
    if (predicate(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate(server.stats());
}

// ---------------------------------------------------------------------------
// Admission control + load shedding

TEST(ServeOverload, ShedsWithRetryAfterWhenSlotAndQueueAreFull) {
  Server server(chaos_server_options());  // 1 slot, queue depth 1
  std::string slot_response;
  std::string queue_response;
  std::thread slot([&] {
    slot_response = server.handle_line(spin_frame("slot", 400, true));
  });
  ASSERT_TRUE(wait_for(server, 2000,
                       [](const ServeStats& s) { return s.inflight == 1; }));
  std::thread queued([&] {
    queue_response = server.handle_line(spin_frame("queued", 1, true));
  });
  ASSERT_TRUE(wait_for(server, 2000,
                       [](const ServeStats& s) { return s.queued == 1; }));

  // Slot busy, queue full: the next job is shed immediately — no blocking
  // — with the overloaded envelope and a positive backoff hint.
  const auto start = Clock::now();
  const JsonValue shed = parse_response(server.handle_line(
      frame("shed", "lint", design_field(toggle_text()))));
  const double shed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  EXPECT_FALSE(response_ok(shed));
  EXPECT_EQ(error_code(shed), "overloaded");
  const JsonValue* retry = shed.find("error")->find("retry_after_ms");
  ASSERT_NE(retry, nullptr);
  EXPECT_GE(retry->as_number(), 1.0);
  EXPECT_EQ(shed.find("error")->find("expired_in_queue"), nullptr);
  EXPECT_LT(shed_ms, 300.0);  // shed, not queued behind the 400ms spinner

  slot.join();
  queued.join();
  EXPECT_TRUE(response_ok(parse_response(slot_response)));
  EXPECT_TRUE(response_ok(parse_response(queue_response)));

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.jobs_shed, 1u);
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_accepted, 2u);
  EXPECT_EQ(stats.jobs_done, 2u);
  EXPECT_EQ(stats.jobs_accepted, stats.jobs_done + stats.jobs_failed);
}

TEST(ServeOverload, HealthAnswersInlineWhileSaturated) {
  Server server(chaos_server_options());
  std::string slot_response;
  std::string queue_response;
  std::thread slot([&] {
    slot_response = server.handle_line(spin_frame("slot", 400, true));
  });
  ASSERT_TRUE(wait_for(server, 2000,
                       [](const ServeStats& s) { return s.inflight == 1; }));
  std::thread queued([&] {
    queue_response = server.handle_line(spin_frame("queued", 1, true));
  });
  ASSERT_TRUE(wait_for(server, 2000,
                       [](const ServeStats& s) { return s.queued == 1; }));

  // health bypasses the admission queue entirely: answered inline, fast,
  // and honest about the saturation.
  const auto start = Clock::now();
  const JsonValue health =
      parse_response(server.handle_line(frame("h", "health")));
  const double health_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  ASSERT_TRUE(response_ok(health));
  EXPECT_LT(health_ms, 300.0);
  const JsonValue* result = health.find("result");
  EXPECT_EQ(result->find("status")->as_string(), "overloaded");
  EXPECT_EQ(result->find("inflight")->as_number(), 1.0);
  EXPECT_EQ(result->find("queued")->as_number(), 1.0);
  EXPECT_EQ(result->find("quarantined")->as_number(), 0.0);
  EXPECT_EQ(result->find("max_inflight")->as_number(), 1.0);
  EXPECT_EQ(result->find("admission_queue")->as_number(), 1.0);

  slot.join();
  queued.join();
  const JsonValue idle =
      parse_response(server.handle_line(frame("h2", "health")));
  EXPECT_EQ(idle.find("result")->find("status")->as_string(), "ok");
}

TEST(ServeOverload, EveryJobWorkerRunsAJobAtOnce) {
  // --threads N means N job workers: N cooperative spins admitted together
  // all run at once, and none waits in the pool behind another.
  for (const unsigned n : {2u, 3u}) {
    SCOPED_TRACE(std::to_string(n) + " threads");
    ServeOptions options;
    options.threads = n;
    options.chaos_hooks = true;
    Server server(options);
    EXPECT_EQ(server.stats().threads, n);
    EXPECT_EQ(server.stats().max_inflight, n);

    constexpr std::uint64_t kSpinMs = 400;
    std::vector<double> latency_ms(n, 0.0);
    std::vector<std::thread> callers;
    for (unsigned i = 0; i < n; ++i) {
      callers.emplace_back([&, i] {
        const auto start = Clock::now();
        const JsonValue doc = parse_response(server.handle_line(
            spin_frame("spin-" + std::to_string(i), kSpinMs, true)));
        EXPECT_TRUE(response_ok(doc));
        latency_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
      });
    }
    EXPECT_TRUE(wait_for(server, 2000, [n](const ServeStats& s) {
      return s.inflight == n && s.queued == 0;
    }));
    for (std::thread& t : callers) t.join();
    // Running at once, each spin answers after about one spin; a job left
    // waiting for a worker would take two.
    for (const double ms : latency_ms) {
      EXPECT_LT(ms, 1.75 * kSpinMs);
    }
  }

  // One thread keeps the inline serial mode: one worker, one slot.
  ServeOptions serial;
  serial.threads = 1;
  const Server server(serial);
  EXPECT_EQ(server.stats().threads, 1u);
  EXPECT_EQ(server.stats().max_inflight, 1u);
}

// ---------------------------------------------------------------------------
// Deadline propagation + queue expiry

TEST(ServeOverload, DeadlineExpiredInQueueIsRejectedWithoutRunning) {
  Server server(chaos_server_options());
  std::string slot_response;
  std::thread slot([&] {
    // Uncooperative, no deadline: holds the only slot for 300ms.
    slot_response = server.handle_line(spin_frame("slot", 300, false));
  });
  ASSERT_TRUE(wait_for(server, 2000,
                       [](const ServeStats& s) { return s.inflight == 1; }));

  // 40ms deadline against a 300ms occupant: the job must die in the queue
  // and be rejected without its handler ever running.
  const JsonValue expired = parse_response(server.handle_line(
      spin_frame("doomed", 5000, true, /*deadline_ms=*/40)));
  EXPECT_FALSE(response_ok(expired));
  EXPECT_EQ(error_code(expired), "overloaded");
  const JsonValue* flag = expired.find("error")->find("expired_in_queue");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->as_bool());
  ASSERT_NE(expired.find("error")->find("retry_after_ms"), nullptr);

  slot.join();
  EXPECT_TRUE(response_ok(parse_response(slot_response)));
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_accepted, 2u);
  EXPECT_EQ(stats.jobs_done, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog: cooperative cancellation and wedged-job quarantine

TEST(ServeOverload, WatchdogCancelsACooperativeJobAtItsDeadline) {
  Server server(chaos_server_options());
  // Asks for 5 seconds of spin but promises a 60ms deadline; the watchdog
  // fires its token and the cooperative handler yields early.
  const JsonValue doc = parse_response(server.handle_line(
      spin_frame("coop", 5000, true, /*deadline_ms=*/60)));
  ASSERT_TRUE(response_ok(doc));
  const JsonValue* result = doc.find("result");
  EXPECT_TRUE(result->find("cancelled")->as_bool());
  EXPECT_LT(result->find("spun_ms")->as_number(), 2500.0);
  const ServeStats stats = server.stats();
  EXPECT_GE(stats.watchdog_kills, 1u);
  EXPECT_EQ(stats.watchdog_wedged, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(ServeOverload, WatchdogQuarantinesAWedgedJobAndCapacityRecovers) {
  ServeOptions options = chaos_server_options();
  options.watchdog_grace = 1;  // wedged one deadline-span past the kill
  Server server(options);

  // The wedge: ignores its token and spins 800ms against a 50ms deadline.
  // Kill fires at ~50ms, quarantine at ~100ms (grace 1 x 50ms span).
  std::string wedged_response;
  std::thread wedged([&] {
    wedged_response = server.handle_line(
        spin_frame("wedged", 800, false, /*deadline_ms=*/50));
  });
  ASSERT_TRUE(wait_for(server, 4000, [](const ServeStats& s) {
    return s.quarantined == 1;
  }));
  {
    const ServeStats stats = server.stats();
    EXPECT_GE(stats.watchdog_kills, 1u);
    EXPECT_EQ(stats.watchdog_wedged, 1u);
    EXPECT_EQ(stats.inflight, 0u);  // the slot was written off, not leaked
  }

  // Usable capacity is back while the zombie still spins: a fresh job
  // starts and completes on the freed slot.
  const JsonValue fresh = parse_response(server.handle_line(
      frame("fresh", "lint", design_field(toggle_text()))));
  EXPECT_TRUE(response_ok(fresh));

  // When the zombie finally yields it still answers its client, and the
  // quarantine is lifted — degraded was temporary, not permanent.
  wedged.join();
  EXPECT_TRUE(response_ok(parse_response(wedged_response)));
  ASSERT_TRUE(wait_for(server, 2000, [](const ServeStats& s) {
    return s.quarantined == 0;
  }));
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.watchdog_wedged, 1u);
  EXPECT_EQ(stats.jobs_accepted, stats.jobs_done + stats.jobs_failed);
}

// ---------------------------------------------------------------------------
// Synthetic faults over the admission checkpoints

TEST(ServeOverload, FaultInjectionSweepsTheAdmissionPath) {
  Server server(chaos_server_options());
  const std::string request =
      frame("f", "lint", design_field(toggle_text()));

  // Checkpoint 1, "serve.admit": synthetic shed.
  fault_inject::arm(1);
  const JsonValue shed = parse_response(server.handle_line(request));
  fault_inject::disarm();
  EXPECT_EQ(error_code(shed), "overloaded");
  ASSERT_NE(shed.find("error")->find("retry_after_ms"), nullptr);

  // Checkpoint 2, "serve.start": synthetic in-queue expiry.
  fault_inject::arm(2);
  const JsonValue expired = parse_response(server.handle_line(request));
  fault_inject::disarm();
  EXPECT_EQ(error_code(expired), "overloaded");
  const JsonValue* flag = expired.find("error")->find("expired_in_queue");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->as_bool());

  // Disarmed, the same request sails through — the server survived both.
  EXPECT_TRUE(response_ok(parse_response(server.handle_line(request))));
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.jobs_shed, 1u);
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_accepted, stats.jobs_done + stats.jobs_failed);
}

// ---------------------------------------------------------------------------
// Chaos over a real socket

std::string unique_socket_path(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::ostringstream os;
  os << ((tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp")
     << "/rtv-overload-" << tag << "-" << ::getpid() << ".sock";
  return os.str();
}

/// Minimal blocking NDJSON client over a Unix-domain socket.
class LineClient {
 public:
  explicit LineClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    int rc = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
      if (rc == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(rc, 0) << std::strerror(errno);
  }

  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends raw bytes — no framing, so chaos payloads go out verbatim.
  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }


  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// Like send_line, but a peer hang-up (EPIPE/ECONNRESET) is reported as
  /// false instead of a test failure — the slow-reader test *wants* the
  /// server to sever the connection while the flood is still going out.
  bool try_send_line(const std::string& line) {
    const std::string wire = line + "\n";
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one response line; fails the test if the peer hangs up first.
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      EXPECT_GT(n, 0) << "connection closed before a full line arrived";
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Runs serve_socket on a background thread; shut_down() drains and joins.
class SocketServer {
 public:
  SocketServer(const ServeOptions& options, const char* tag)
      : server_(options), path_(unique_socket_path(tag)) {
    thread_ = std::thread([this] { server_.serve_socket(path_); });
  }

  ~SocketServer() {
    if (thread_.joinable()) shut_down();
  }

  void shut_down() {
    LineClient client(path_);
    client.send_line(frame("bye", "shutdown"));
    client.recv_line();
    thread_.join();
  }

  Server& server() { return server_; }
  const std::string& path() const { return path_; }

 private:
  Server server_;
  std::string path_;
  std::thread thread_;
};

TEST(ServeOverload, ChaosFramesNeverKillTheServer) {
  ServeOptions options = chaos_server_options();
  options.max_request_bytes = 4096;
  SocketServer harness(options, "chaos");

  {  // Garbage bytes, then a valid frame on the same connection.
    LineClient client(harness.path());
    client.send_line("\x01\x02\xff{{{not json");
    EXPECT_EQ(error_code(parse_response(client.recv_line())),
              "bad_request");
    client.send_line(frame("after-garbage", "health"));
    EXPECT_TRUE(response_ok(parse_response(client.recv_line())));
  }
  {  // Half a frame, then the client vanishes mid-line.
    LineClient client(harness.path());
    client.send_raw("{\"rtv_serve\":1,\"id\":\"half");
  }
  {  // An oversized frame is rejected, not buffered forever.
    LineClient client(harness.path());
    client.send_line("{\"pad\":\"" + std::string(8192, 'x') + "\"}");
    EXPECT_EQ(error_code(parse_response(client.recv_line())),
              "bad_request");
  }
  {  // A client that sends a real job and disconnects before the answer.
    LineClient client(harness.path());
    client.send_line(spin_frame("abandoned", 50, true));
  }

  // After all of that the server still does real work.
  LineClient client(harness.path());
  client.send_line(frame("still-alive", "lint",
                         design_field(toggle_text())));
  const JsonValue doc = parse_response(client.recv_line());
  EXPECT_TRUE(response_ok(doc));
  harness.shut_down();
}

TEST(ServeOverload, FloodAtFourTimesCapacityAnswersEveryFrameOnce) {
  ServeOptions options;
  options.threads = 4;
  options.max_inflight = 2;
  options.admission_queue = 2;
  options.chaos_hooks = true;
  SocketServer harness(options, "flood");

  // 4 clients x 16 jobs against 2 slots + 2 queue places: far beyond
  // capacity. Every id must come back exactly once, as success or as an
  // overloaded rejection — never silently dropped, never duplicated.
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 16;
  std::vector<std::map<std::string, std::string>> outcomes(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client(harness.path());
      for (int j = 0; j < kJobsPerClient; ++j) {
        const std::string id =
            indexed_name(indexed_name("c", c) + "-", j);
        client.send_line(spin_frame(id, 3, true));
      }
      for (int j = 0; j < kJobsPerClient; ++j) {
        const JsonValue doc = parse_response(client.recv_line());
        const std::string id = doc.find("id")->as_string();
        const std::string outcome =
            response_ok(doc) ? "ok" : error_code(doc);
        EXPECT_EQ(outcomes[c].count(id), 0u) << "duplicate response " << id;
        outcomes[c][id] = outcome;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::uint64_t ok_count = 0;
  std::uint64_t shed_count = 0;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(outcomes[c].size(), static_cast<std::size_t>(kJobsPerClient))
        << "client " << c;
    for (const auto& [id, outcome] : outcomes[c]) {
      if (outcome == "ok") {
        ++ok_count;
      } else {
        EXPECT_EQ(outcome, "overloaded") << id;
        ++shed_count;
      }
    }
  }
  EXPECT_GT(ok_count, 0u);

  // A response is written before its slot is released, so the last job can
  // still be winding down when its client reads the answer: wait for true
  // quiescence before asserting the counter invariant.
  ASSERT_TRUE(wait_for(harness.server(), 2000, [](const ServeStats& s) {
    return s.inflight == 0 && s.queued == 0;
  }));
  const ServeStats stats = harness.server().stats();
  EXPECT_EQ(stats.jobs_done, ok_count);
  EXPECT_EQ(stats.jobs_shed + stats.jobs_expired, shed_count);
  EXPECT_EQ(stats.jobs_accepted, stats.jobs_done + stats.jobs_failed);
  harness.shut_down();
}

// ---------------------------------------------------------------------------
// Slow-reader backpressure (satellite: a stalled client must not wedge
// the pool past the write timeout)

TEST(ServeOverload, SlowReaderIsSeveredAndHealthyClientsKeepFlowing) {
  ServeOptions options;
  options.threads = 2;
  options.max_inflight = 2;
  options.admission_queue = 64;
  options.write_timeout_ms = 150;
  SocketServer harness(options, "slowreader");

  // The slow reader: pours in lint jobs and never reads a byte back.
  // Responses pile up until the socket buffer fills; the next write times
  // out after 150ms and the connection is severed instead of wedging the
  // writer forever.
  LineClient slow(harness.path());
  const std::string design = design_field(toggle_text());
  for (int j = 0; j < 3000; ++j) {
    // The server is expected to sever us mid-flood; a broken pipe here is
    // the severance arriving, not an error.
    if (!slow.try_send_line(
            frame("slow-" + std::to_string(j), "lint", design))) {
      break;
    }
  }

  const auto until = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < until &&
         harness.server().stats().write_timeouts == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(harness.server().stats().write_timeouts, 1u);

  // A healthy client on its own connection gets answers throughout — each
  // frame answered promptly, and an overloaded rejection (the flood's
  // backlog is real load) obeyed as the protocol intends: back off and
  // retry until the shed jobs drain and the lint goes through.
  LineClient healthy(harness.path());
  bool served = false;
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    const auto start = Clock::now();
    healthy.send_line(
        frame("healthy-" + std::to_string(attempt), "lint", design));
    const JsonValue doc = parse_response(healthy.recv_line());
    const double answer_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    EXPECT_LT(answer_ms, 5000.0);  // never wedged behind the dead writer
    if (response_ok(doc)) {
      served = true;
    } else {
      ASSERT_EQ(error_code(doc), "overloaded");
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_TRUE(served);
  harness.shut_down();
}

}  // namespace
}  // namespace rtv
