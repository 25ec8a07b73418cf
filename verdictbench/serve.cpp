// Workload `serve`: protocol v3 over a Unix socket. The server (serve::Server
// with a 2-thread pool) runs in this process. Rounds alternate a `low`
// window, one closed-loop caller on one connection (no queue: the latency
// floor), and a `high` window, two closed-loop callers on two connections.
// The pool runs one job at a time, so at `high` each job can wait behind the
// other caller's job: that contention shows in the `high` latencies and in
// goodput. (A paced open loop was tried first; on a shared 4-vCPU host its
// percentiles swung 30-100% run to run, because host slowdowns push a fixed
// offered load across the edge between waiting and not waiting.) The mix is
// lint, simulate, small-design validate, small-pair portfolio
// cls-equivalence and kCls faultsim on a 60-gate design, one fifth each.
// Three jobs in four name a cached design_id; one in four sends fresh
// inline text, so a capped cache both inserts and evicts.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/lint.hpp"
#include "bench.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "io/json.hpp"
#include "io/rnl_format.hpp"
#include "serve/design_cache.hpp"
#include "serve/server.hpp"
#include "sim/cls_sim.hpp"
#include "ternary/trit.hpp"

namespace vb {

using namespace rtv;

namespace {

constexpr unsigned kConnections = 2;
constexpr int kRounds = 12;

const char* const kJobTypes[] = {"lint", "simulate", "validate", "cls-equivalence", "faultsim"};

/// What a job must answer, computed in-process at setup.
struct Expected {
  // lint
  std::size_t errors = 0, warnings = 0;
  // simulate
  std::vector<std::string> responses;
  // validate: premise of Cor 5.3 (then the pair must not be refuted)
  bool premise = false;
  // cls-equivalence
  Expect expect = Expect::kNoClaim;
  std::string text_a, text_b;  ///< for counterexample replay
  // faultsim
  std::size_t detected = 0;
};

/// One request template: a design (hot, by id; or fresh, inline) plus the
/// options of its job type.
struct Template {
  std::string type;
  std::string design_text;    ///< inline text (hot designs are sent once)
  std::string design_b_text;  ///< cls-equivalence second design
  std::string options_json;   ///< "{...}"
  std::string budget_json;    ///< "" or "{...}"
  Expected expected;
  std::string design_id, design_b_id;  ///< filled when interned
};

std::string json_string(const std::string& s) {
  return write_json(JsonValue(s));
}

std::string frame(const Template& t, const std::string& id, const std::string* inline_text) {
  std::ostringstream os;
  os << "{\"rtv_serve\":3,\"id\":\"" << id << "\",\"type\":\"" << t.type << "\"";
  if (inline_text != nullptr) {
    os << ",\"design\":" << json_string(*inline_text);
  } else {
    os << ",\"design_id\":\"" << t.design_id << "\"";
  }
  if (t.type == "cls-equivalence") os << ",\"design_b_id\":\"" << t.design_b_id << "\"";
  if (!t.budget_json.empty()) os << ",\"budget\":" << t.budget_json;
  os << ",\"options\":" << t.options_json << "}";
  return os.str();
}

/// Renames the first primary input: a new canonical text (so a cache miss
/// and a fresh entry) with the same behaviour and the same answers.
std::string rename_first_input(const std::string& text, const std::string& suffix) {
  std::istringstream in(text);
  std::string line, name;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
    std::istringstream ls(line);
    std::string a, b, c;
    ls >> a >> b >> c;
    if (name.empty() && a == "node" && c == "input") name = b;
  }
  std::ostringstream out;
  for (const std::string& l : lines) {
    std::istringstream ls(l);
    std::string tok;
    bool first = true;
    while (ls >> tok) {
      if (tok == name) {
        tok = name + suffix;
      } else if (tok.rfind(name + ".", 0) == 0) {
        tok = name + suffix + tok.substr(name.size());
      }
      out << (first ? "" : " ") << tok;
      first = false;
    }
    out << "\n";
  }
  return out.str();
}

std::vector<BitsSeq> server_tests(const Netlist& n, unsigned count, unsigned cycles,
                                  std::uint64_t seed) {
  // The same draw the faultsim handler makes from its options.
  Rng rng(seed);
  std::vector<BitsSeq> tests(count);
  for (BitsSeq& seq : tests) {
    for (unsigned t = 0; t < cycles; ++t) {
      Bits in(n.primary_inputs().size());
      for (auto& v : in) v = rng.coin();
      seq.push_back(std::move(in));
    }
  }
  return tests;
}

Template lint_template(const std::string& text) {
  Template t{"lint", text, "", "{}", "", {}, "", ""};
  LintOptions o;
  o.require_junction_normal = false;
  o.warn_unreachable = true;
  o.semantic = true;
  const LintResult r = run_lint(read_rnl(text), o);
  t.expected.errors = r.diagnostics.num_errors();
  t.expected.warnings = r.diagnostics.num_warnings();
  return t;
}

Template simulate_template(const std::string& text, Rng& rng) {
  const Netlist n = read_rnl(text);
  std::string inputs;
  Template t{"simulate", text, "", "", "", {}, "", ""};
  for (int s = 0; s < 4; ++s) {
    TritsSeq seq;
    for (int c = 0; c < 8; ++c) {
      Trits in(n.primary_inputs().size());
      for (Trit& v : in) {
        const auto k = rng.below(3);  // 0, 1 or X
        v = static_cast<Trit>(k);
      }
      seq.push_back(std::move(in));
    }
    inputs += (s ? "," : "") + sequence_to_string(seq);
    ClsSimulator sim(n);
    t.expected.responses.push_back(sequence_to_string(sim.run(seq)));
  }
  t.options_json = "{\"inputs\":" + json_string(inputs) + ",\"mode\":\"cls\"}";
  return t;
}

Template validate_template(const std::string& text, Objective obj) {
  Template t{"validate", text, "",
             std::string("{\"objective\":\"") + to_string(obj) + "\"}",
             "{\"time_ms\":5000}", {}, "", ""};
  const Netlist n = read_rnl(text);
  t.expected.premise = n.all_cells_preserve_all_x() && retime(n, obj).all_cells_preserve_all_x();
  return t;
}

Template equiv_template(const EquivPair& p) {
  Template t{"cls-equivalence", p.text_a, p.text_b, "{\"backend\":\"portfolio\"}",
             "{\"time_ms\":5000}", {}, "", ""};
  t.expected.expect = p.expect;
  t.expected.text_a = p.text_a;
  t.expected.text_b = p.text_b;
  return t;
}

Template faultsim_template(const std::string& text, unsigned tests, unsigned cycles) {
  Template t{"faultsim", text, "",
             "{\"mode\":\"cls\",\"tests\":" + std::to_string(tests) +
                 ",\"cycles\":" + std::to_string(cycles) + ",\"seed\":7}",
             "{\"time_ms\":10000}", {}, "", ""};
  const Netlist n = read_rnl(text);
  FaultSimOptions o;
  o.mode = FaultSimMode::kCls;
  o.threads = 1;
  t.expected.detected =
      fault_simulate(n, collapse_faults(n), server_tests(n, tests, cycles, 7), o).num_detected;
  return t;
}

// ---- socket client ----------------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
  throw std::runtime_error("cannot connect to the server socket " + path);
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("socket write failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Line reader over a socket with an overall idle timeout.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool next(std::string* line, int idle_timeout_ms) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, idle_timeout_ms) <= 0) return false;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// The in-process server on its socket, plus the client connections.
/// Destruction sends `shutdown`, joins the server thread and closes fds.
class Harness {
 public:
  Harness(const std::string& path, std::size_t cache_bytes) : path_(path) {
    serve::ServeOptions o;
    o.threads = 2;
    o.max_inflight = 2;
    o.admission_queue = 512;  // deep enough that `high` never sheds
    o.cache_bytes = cache_bytes;
    server_ = std::make_unique<serve::Server>(o);
    thread_ = std::thread([this] {
      try {
        server_->serve_socket(path_);
      } catch (const std::exception& e) {
        server_error_ = e.what();
      }
    });
    try {
      for (unsigned c = 0; c < kConnections; ++c) fds_.push_back(connect_unix(path_));
    } catch (const std::exception& e) {
      stop();
      throw std::runtime_error(std::string(e.what()) + " (server: " + server_error_ + ")");
    }
  }
  ~Harness() { stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  int fd(unsigned c) const { return fds_[c]; }
  serve::Server& server() { return *server_; }

  /// One synchronous request on connection 0 (setup only).
  JsonValue request(const std::string& line) {
    write_all(fds_[0], line + "\n");
    LineReader reader(fds_[0]);
    std::string response;
    if (!reader.next(&response, 60000)) throw std::runtime_error("server did not answer");
    return parse_json(response);
  }

 private:
  void stop() {
    if (thread_.joinable()) {
      try {
        const int fd = fds_.empty() ? connect_unix(path_) : fds_[0];
        write_all(fd, "{\"rtv_serve\":3,\"id\":\"bye\",\"type\":\"shutdown\"}\n");
        if (fds_.empty()) ::close(fd);
      } catch (const std::exception&) {
      }
      for (int fd : fds_) ::shutdown(fd, SHUT_WR);
      thread_.join();
    }
    for (int fd : fds_) ::close(fd);
    fds_.clear();
  }

  std::string path_;
  std::unique_ptr<serve::Server> server_;
  std::vector<int> fds_;
  std::string server_error_;
  std::thread thread_;
};

struct JobRecord {
  std::size_t tmpl = 0;
  bool fresh = false;
  std::string line;
  Clock::time_point sent, received;
  bool answered = false;
  std::string response;
};

/// Runs one closed-loop window: each of `connections` callers sends its
/// next job as soon as the previous answer arrives, until `seconds` pass.
/// `next_job` makes a job; it is called from the caller threads and must
/// be thread-safe. Returns the jobs in completion order per caller.
template <typename MakeJob>
std::vector<JobRecord> run_window(Harness& h, unsigned connections, double seconds,
                                  MakeJob&& next_job) {
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  std::vector<std::vector<JobRecord>> per_caller(connections);
  std::vector<std::exception_ptr> errors(connections);
  std::vector<std::thread> callers;
  for (unsigned c = 0; c < connections; ++c) {
    callers.emplace_back([&, c] {
      try {
        LineReader reader(h.fd(c));
        while (Clock::now() < until) {
          JobRecord j = next_job();
          j.sent = Clock::now();
          write_all(h.fd(c), j.line + "\n");
          j.answered = reader.next(&j.response, 20000);
          j.received = Clock::now();
          per_caller[c].push_back(std::move(j));
          if (!per_caller[c].back().answered) break;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<JobRecord> jobs;
  for (auto& v : per_caller) {
    for (JobRecord& j : v) jobs.push_back(std::move(j));
  }
  return jobs;
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double number(const JsonValue* v) { return v != nullptr && v->is_number() ? v->as_number() : 0.0; }

}  // namespace

RunResult run_serve(const RunConfig& config) {
  RunResult out;
  int setups = 0;

  struct Setup {
    std::unique_ptr<Harness> harness;
    std::vector<Template> hot;    ///< by design_id
    std::vector<Template> fresh;  ///< inline, renamed per job
  };
  double setup_s = 0;
  Setup setup = timed_setup(11, &setup_s, [&] {
    Setup s;
    const Corpus corpus = build_corpus();
    const auto text = [&](const char* name) { return corpus.designs[corpus.find(name)].text; };
    Rng rng(config.seed);
    for (const char* d : {"s27", "adder8_2", "rand60_s1", "ctrl8"}) {
      s.hot.push_back(lint_template(text(d)));
      s.hot.push_back(simulate_template(text(d), rng));
    }
    // Small designs whose validation still takes a few ms, so the verdict
    // latency is compute rather than thread wake-ups.
    for (const char* d : {"s27", "adder8_2", "adder8_3", "lfsr8"}) {
      s.hot.push_back(validate_template(text(d), Objective::kMinArea));
      s.hot.push_back(validate_template(text(d), Objective::kMinPeriod));
    }
    s.hot.push_back(equiv_template(retimed_pair(corpus, "adder8_2", Objective::kMinArea)));
    s.hot.push_back(equiv_template(mutant_pair(corpus, "adder8_2")));
    s.hot.push_back(faultsim_template(text("rand60_s1"), 16, 6));
    // Fresh designs: fixed small random netlists (so their cost does not
    // move with the seed); each job renames one input, which makes a new
    // design as far as the cache can tell.
    for (const char* d : {"rand30_s2", "rand30_s3", "rand30_s2_t"}) {
      s.fresh.push_back(lint_template(text(d)));
      s.fresh.push_back(simulate_template(text(d), rng));
    }

    // Cache cap: every hot design plus 32 fresh ones, so the LRU evicts
    // fresh entries long before a hot design goes cold.
    serve::DesignCache probe(std::size_t{1} << 40);
    std::size_t hot_bytes = 0, fresh_bytes = 0;
    for (const Template& t : s.hot) {
      bool hit = false;
      auto e = probe.intern(t.design_text, &hit);
      if (!hit) hot_bytes += e->bytes();
      if (!t.design_b_text.empty()) {
        auto b = probe.intern(t.design_b_text, &hit);
        if (!hit) hot_bytes += b->bytes();
      }
    }
    for (const Template& t : s.fresh) {
      fresh_bytes = std::max(fresh_bytes, probe.intern(t.design_text)->bytes());
    }
    // A fresh socket path per setup: a client must never reach the server
    // of an earlier setup that is still shutting down.
    s.harness = std::make_unique<Harness>(config.workdir + "/verdictbench-" +
                                              std::to_string(::getpid()) + "-" +
                                              std::to_string(setups++) + ".sock",
                                          hot_bytes + 32 * fresh_bytes);

    // Intern every hot design over the protocol (a lint job each).
    std::map<std::string, std::string> ids;
    int n = 0;
    const auto intern = [&](const std::string& design) {
      auto it = ids.find(design);
      if (it != ids.end()) return it->second;
      const JsonValue r = s.harness->request(
          "{\"rtv_serve\":3,\"id\":\"intern" + std::to_string(n++) +
          "\",\"type\":\"lint\",\"design\":" + json_string(design) + "}");
      const JsonValue* id = r.find("design_id");
      if (id == nullptr || !id->is_string()) throw std::runtime_error("interning failed");
      ids[design] = id->as_string();
      return id->as_string();
    };
    for (Template& t : s.hot) {
      t.design_id = intern(t.design_text);
      if (!t.design_b_text.empty()) t.design_b_id = intern(t.design_b_text);
    }
    return s;
  });

  // The mix: a fixed cycle of 20 slots, 4 per job type. No traffic record
  // exists to weight the types, so each gets the same share. 15 slots name
  // a cached design and 5 send fresh inline text; the fresh ones go to the
  // cheap single-design types (lint 2, simulate 3), so that a fresh job's
  // parse and cache insert are a visible part of its latency. Each slot
  // takes the next template of its type from its pool, round robin. The
  // templates are chosen so that the types fall into separate latency
  // bands: lint and simulate below validate, validate below
  // cls-equivalence, cls-equivalence below faultsim. p50 then falls in the
  // middle of the validate band and p90 in the middle of the faultsim band,
  // not on the edge between two bands, where one job more or less in a
  // window moves the percentile from one band to the other.
  struct Slot {
    const char* type;
    bool fresh;
  };
  const Slot cycle[] = {
      {"lint", false}, {"validate", false}, {"simulate", true}, {"cls-equivalence", false},
      {"faultsim", false}, {"lint", true}, {"validate", false}, {"simulate", true},
      {"cls-equivalence", false}, {"faultsim", false}, {"lint", false}, {"validate", false},
      {"simulate", false}, {"cls-equivalence", false}, {"faultsim", false}, {"lint", true},
      {"validate", false}, {"simulate", true}, {"cls-equivalence", false}, {"faultsim", false},
  };
  // Callers share one position in the cycle, so each window runs the same
  // mix however many callers it has.
  std::mutex mix_mutex;
  std::map<std::pair<std::string, bool>, std::size_t> next;
  std::size_t position = 0, fresh_serial = 0;
  const auto next_job = [&] {
    std::lock_guard<std::mutex> lock(mix_mutex);
    const Slot& slot = cycle[position++ % std::size(cycle)];
    const std::vector<Template>& pool = slot.fresh ? setup.fresh : setup.hot;
    std::size_t& k = next[{slot.type, slot.fresh}];
    JobRecord j;
    j.fresh = slot.fresh;
    do {
      j.tmpl = k++ % pool.size();
    } while (pool[j.tmpl].type != slot.type);
    const std::string id = "j" + std::to_string(position);
    if (!j.fresh) {
      j.line = frame(setup.hot[j.tmpl], id, nullptr);
    } else {
      const std::string text = rename_first_input(
          setup.fresh[j.tmpl].design_text,
          "_f" + std::to_string(config.seed) + "_" + std::to_string(fresh_serial++));
      j.line = frame(setup.fresh[j.tmpl], id, &text);
    }
    return j;
  };
  if (config.plant_wrong_answer) {
    for (Template& t : setup.hot) {
      if (t.type == "simulate") {
        t.expected.responses[0] += "1";
        break;
      }
    }
  }

  Harness& h = *setup.harness;
  run_window(h, 1, 0.5, next_job);  // warm-up, discarded

  // Rounds of windows: low, high. Window latencies are summarised per window
  // and the run reports the best window, so the slow stretches of a shared
  // host (see QueryLatencies) do not move it. Traced and untraced runs send
  // the same requests: the job spans are recorded after the windows.
  enum Phase { kLow, kHigh };
  struct Window {
    Phase phase;
    std::vector<JobRecord> jobs;
    double seconds = 0;
  };
  const double window_s = config.seconds / (kRounds * 2);
  std::vector<Window> windows;
  const serve::ServeStats before = h.server().stats();
  for (int round = 0; round < kRounds; ++round) {
    for (Phase phase : {kLow, kHigh}) {
      const auto start = Clock::now();
      std::vector<JobRecord> jobs =
          run_window(h, phase == kHigh ? kConnections : 1, window_s, next_job);
      windows.push_back(Window{phase, std::move(jobs), ms_since(start) / 1000.0});
    }
  }
  const serve::ServeStats after = h.server().stats();

  // ---- check every response, tally, and collect the per-layer split ------
  Tally tally;
  Tracer tr(config.trace);
  std::uint64_t governed = 0;
  QueryLatencies verdict_low;  // per verdict-job template
  std::vector<double> queue_ms, overhead_ms;
  std::map<std::string, std::vector<double>> run_ms;
  double cache_hits = 0, fault_tests_run = 0, fault_dropped = 0, fault_faults = 0,
         fault_run_ms = 0, fault_jobs = 0, dataflow_updates = 0, lint_jobs = 0;
  /// Checks one response against its known answer; true when it is a good
  /// (successful, correct) answer.
  const auto check = [&](const JobRecord& j, Phase phase) {
    const Template& t = j.fresh ? setup.fresh[j.tmpl] : setup.hot[j.tmpl];
    const std::string name = t.type + (j.fresh ? "/fresh" : "/hot") + "#" + std::to_string(j.tmpl);
    ++tally.attempted;
    if (!j.answered) {
      tally.check_failure(name, "no response");
      return false;
    }
    JsonValue r;
    try {
      r = parse_json(j.response);
    } catch (const std::exception& e) {
      tally.check_failure(name, std::string("unparsable response: ") + e.what());
      return false;
    }
    const JsonValue* ok = r.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const JsonValue* err = r.find("error");
      const JsonValue* code = err != nullptr ? err->find("code") : nullptr;
      const std::string c = code != nullptr && code->is_string() ? code->as_string() : "?";
      if (c == "internal" || c == "capacity" || c == "overloaded") {
        tally.product_failure(name + " (" + c + ")");
      } else {
        tally.check_failure(name, "error envelope " + c);
      }
      return false;
    }
    const JsonValue* stats = r.find("stats");
    const JsonValue* result = r.find("result");
    if (stats == nullptr || result == nullptr) {
      tally.check_failure(name, "response without result/stats");
      return false;
    }
    const double q = number(stats->find("queue_ms")), run = number(stats->find("run_ms"));
    queue_ms.push_back(q);
    run_ms[t.type].push_back(run);
    overhead_ms.push_back(ms_between(j.sent, j.received) - q - run);
    const JsonValue* hit = stats->find("cache_hit");
    cache_hits += hit != nullptr && hit->is_bool() && hit->as_bool() ? 1 : 0;
    const JsonValue* verdict = stats->find("verdict");
    const std::string v = verdict != nullptr && verdict->is_string() ? verdict->as_string() : "";
    // A faultsim job ends `bounded` or `exhausted`, never `proven`, so only
    // the verdict job types count here.
    if (t.type == "validate" || t.type == "cls-equivalence") {
      ++governed;
      if (v == "proven") ++tally.proven;
    }
    if (phase == kLow && (t.type == "validate" || t.type == "cls-equivalence")) {
      verdict_low.add(j.tmpl, ms_between(j.sent, j.received));
    }
    const std::uint64_t failures_before = tally.check_failures;
    const Expected& e = t.expected;
    if (t.type == "lint") {
      ++lint_jobs;
      if (number(result->find("errors")) != static_cast<double>(e.errors) ||
          number(result->find("warnings")) != static_cast<double>(e.warnings)) {
        tally.check_failure(name, "lint counts differ from run_lint");
      }
      if (const JsonValue* df = result->find("dataflow")) dataflow_updates += number(df->find("updates"));
    } else if (t.type == "simulate") {
      const JsonValue* rs = result->find("responses");
      bool same = rs != nullptr && rs->is_array() && rs->as_array().size() == e.responses.size();
      for (std::size_t k = 0; same && k < e.responses.size(); ++k) {
        same = rs->as_array()[k].is_string() && rs->as_array()[k].as_string() == e.responses[k];
      }
      if (!same) tally.check_failure(name, "simulate responses differ from ClsSimulator");
    } else if (t.type == "validate") {
      const JsonValue* th = result->find("theorems_hold");
      const JsonValue* eq = result->find("cls_equivalent");
      if (th == nullptr || !th->is_bool() || !th->as_bool()) {
        tally.check_failure(name, "theorems_hold is not true");
      }
      if (e.premise && v != "exhausted" && eq != nullptr && eq->is_bool() && !eq->as_bool()) {
        tally.check_failure(name, "refuted a retiming that meets Cor 5.3's premise");
      }
    } else if (t.type == "cls-equivalence") {
      const JsonValue* eq = result->find("equivalent");
      const JsonValue* cex = result->find("counterexample");
      const bool equivalent = eq != nullptr && eq->is_bool() && eq->as_bool();
      if (cex != nullptr && cex->is_string()) {
        if (!distinguishes(read_rnl(e.text_a), read_rnl(e.text_b),
                           trits_seq_from_string(cex->as_string()))) {
          tally.check_failure(name, "counterexample does not replay on ClsSimulator");
        }
        if (e.expect == Expect::kEquivalent) {
          tally.check_failure(name, "refuted a pair that meets Cor 5.3's premise");
        }
      }
      if (e.expect == Expect::kNotEquivalent && v == "proven" && equivalent) {
        tally.check_failure(name, "proved a kCls-detected mutant equivalent");
      }
    } else if (t.type == "faultsim") {
      const JsonValue* complete = result->find("complete");
      if (complete == nullptr || !complete->is_bool() || !complete->as_bool() ||
          number(result->find("detected")) != static_cast<double>(e.detected)) {
        tally.check_failure(name, "faultsim detected count differs from fault_simulate");
      }
      ++fault_jobs;
      fault_tests_run += number(result->find("tests_run"));
      fault_dropped += number(result->find("faults_dropped"));
      fault_faults += number(result->find("faults"));
      fault_run_ms += run;
    }
    return tally.check_failures == failures_before;
  };

  std::vector<double> p50_low, p90_low, p50_high, p90_high, goodput_high, rate_low;
  std::size_t low_jobs = 0, high_jobs = 0;
  int span_query = 0;
  for (const Window& w : windows) {
    std::vector<double> lat;
    std::size_t good = 0;
    for (const JobRecord& j : w.jobs) {
      good += check(j, w.phase) ? 1 : 0;
      if (j.answered) lat.push_back(ms_between(j.sent, j.received));
      tr.record("serve.job", span_query++, j.sent, j.received);
    }
    if (w.phase == kLow) {
      low_jobs += w.jobs.size();
      rate_low.push_back(static_cast<double>(w.jobs.size()) / w.seconds);
      p50_low.push_back(percentile(lat, 0.5));
      p90_low.push_back(percentile(lat, 0.9));
    } else {
      high_jobs += w.jobs.size();
      p50_high.push_back(percentile(lat, 0.5));
      p90_high.push_back(percentile(lat, 0.9));
      goodput_high.push_back(static_cast<double>(good) / w.seconds);
    }
  }
  tally.report(out);

  const double attempted = static_cast<double>(tally.attempted);
  put(out, "verdict_ms_p50", verdict_low.percentile(0.5), "ms");
  put(out, "verdict_ms_p90", verdict_low.percentile(0.9), "ms");
  put(out, "queries_per_s", *std::max_element(rate_low.begin(), rate_low.end()), "1/s");
  put(out, "decided_share", static_cast<double>(tally.proven) / std::max<double>(governed, 1), "share");
  put(out, "answered_share", 1.0 - static_cast<double>(tally.product_failures) / attempted, "share");
  put(out, "serve_ms_p50_low", best(p50_low), "ms");
  put(out, "serve_ms_p90_low", best(p90_low), "ms");
  put(out, "serve_ms_p50_high", best(p50_high), "ms");
  put(out, "serve_ms_p90_high", best(p90_high), "ms");
  put(out, "goodput_per_s_high", *std::max_element(goodput_high.begin(), goodput_high.end()),
      "1/s");
  put(out, "setup_s", setup_s, "s");
  put(out, "peak_rss_mb", peak_rss_mb(), "MiB");
  {
    double sum = 0, n = 0;
    for (const auto& [type, v] : run_ms) {
      for (double x : v) sum += x;
      n += static_cast<double>(v.size());
    }
    out.notes.push_back("serve: mean run_ms " + std::to_string(sum / std::max(n, 1.0)));
  }
  out.notes.push_back("serve: " + std::to_string(kRounds) + " rounds; " +
                      std::to_string(low_jobs) + " jobs from 1 caller, " +
                      std::to_string(high_jobs) + " from " + std::to_string(kConnections) +
                      " callers");

  if (config.trace) {
    const auto p50 = [&](const char* type) { return percentile(run_ms[type], 0.5); };
    put(out, "serve.queue_ms_p50", percentile(queue_ms, 0.5), "ms");
    put(out, "serve.queue_ms_p90", percentile(queue_ms, 0.9), "ms");
    for (const char* type : kJobTypes) {
      put(out, std::string("serve.run_ms_p50.") + type, p50(type), "ms");
    }
    put(out, "serve.overhead_ms_p50", percentile(overhead_ms, 0.5), "ms");
    put(out, "serve.cache_hit_share", cache_hits / attempted, "share");
    put(out, "serve.cache_evictions",
        static_cast<double>(after.cache.evictions - before.cache.evictions), "count");
    put(out, "serve.shed", static_cast<double>(after.jobs_shed - before.jobs_shed), "count");
    put(out, "fault.job_ms_p50", p50("faultsim"), "ms");
    put(out, "fault.tests_run", fault_tests_run / std::max(fault_jobs, 1.0), "count");
    put(out, "fault.faults_dropped", fault_dropped / std::max(fault_jobs, 1.0), "count");
    put(out, "fault.faults_per_s", fault_faults / std::max(fault_run_ms / 1000.0, 1e-9), "1/s");
    put(out, "sim.simulate_job_ms_p50", p50("simulate"), "ms");
    put(out, "analysis.dataflow_updates", dataflow_updates / std::max(lint_jobs, 1.0), "count");
    // The lint and parse layers without the protocol around them: the
    // same designs, called in-process under spans.
    double bytes = 0;
    int qid = 0;
    for (const Template& t : setup.fresh) {
      const Netlist n = [&] {
        Scope s(tr, "io.parse", qid);
        return read_rnl(t.design_text);
      }();
      bytes += static_cast<double>(t.design_text.size());
      if (t.type == "lint") {
        Scope s(tr, "analysis.lint", qid);
        run_lint(n);
      }
      ++qid;
    }
    for (const Template& t : setup.hot) {
      if (t.type != "lint") continue;
      const Netlist n = read_rnl(t.design_text);
      Scope s(tr, "analysis.lint", qid++);
      run_lint(n);
    }
    const auto total = tr.total_ms_by_name();
    const double lints = static_cast<double>(
        std::count_if(setup.fresh.begin(), setup.fresh.end(), [](const Template& t) { return t.type == "lint"; }) +
        std::count_if(setup.hot.begin(), setup.hot.end(), [](const Template& t) { return t.type == "lint"; }));
    put(out, "io.parse_ms", total.at("io.parse") / static_cast<double>(setup.fresh.size()), "ms");
    put(out, "io.parse_mb_per_s", bytes / 1e6 / std::max(total.at("io.parse") / 1000.0, 1e-9),
        "MB/s");
    put(out, "analysis.lint_ms", total.at("analysis.lint") / lints, "ms");
    // Nothing is traced in the request path (see the windows above).
    put(out, "trace.overhead_ms", 0.0, "ms");
    if (!config.trace_path.empty()) tr.write_chrome_json(config.trace_path);
  }
  return out;
}

}  // namespace vb
