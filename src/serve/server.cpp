#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <istream>
#include <ostream>
#include <thread>

#include "serve/jobs.hpp"
#include "util/fault_inject.hpp"

namespace rtv::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

JsonValue uint_json(std::uint64_t v) {
  return JsonValue(static_cast<double>(v));
}

/// Runs `rollback` on scope exit unless dismissed — the RAII unwind for
/// admission bookkeeping raised before pool_.submit: a throw there must
/// not leak an inflight slot or a connection's outstanding count.
class ScopeGuard {
 public:
  explicit ScopeGuard(std::function<void()> rollback)
      : rollback_(std::move(rollback)) {}
  ~ScopeGuard() {
    if (rollback_) {
      try {
        rollback_();
      } catch (...) {
      }
    }
  }
  void dismiss() { rollback_ = nullptr; }

  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  std::function<void()> rollback_;
};

/// ThreadPool participants for `threads` job workers. The pool's own
/// calling thread never runs submit() tasks, so N >= 2 workers take N + 1
/// participants; a single worker is the pool's inline serial mode.
unsigned pool_participants(unsigned threads) {
  const unsigned workers = ThreadPool::resolve_threads(threads);
  return workers >= 2 ? workers + 1 : 1;
}

}  // namespace

/// Serializes writes of one connection and lets its reader wait for every
/// submitted job's response before the output channel is torn down.
struct Server::Connection {
  std::function<void(const std::string&)> sink;  ///< raw frame writer

  void write(const std::string& frame) {
    std::lock_guard<std::mutex> lk(write_mutex);
    sink(frame);
  }
  void job_started() {
    std::lock_guard<std::mutex> lk(drain_mutex);
    ++outstanding;
  }
  void job_finished() {
    std::lock_guard<std::mutex> lk(drain_mutex);
    --outstanding;
    if (outstanding == 0) drain_cv.notify_all();
  }
  void wait_drained() {
    std::unique_lock<std::mutex> lk(drain_mutex);
    drain_cv.wait(lk, [&] { return outstanding == 0; });
  }

 private:
  std::mutex write_mutex;
  std::mutex drain_mutex;
  std::condition_variable drain_cv;
  unsigned outstanding = 0;
};

Server::Server(const ServeOptions& options)
    : options_(options),
      pool_(pool_participants(options.threads)),
      cache_(options.cache_bytes),
      max_inflight_(options.max_inflight != 0 ? options.max_inflight
                                              : job_workers()),
      admission_queue_(options.admission_queue != 0 ? options.admission_queue
                                                    : 2 * max_inflight_),
      watchdog_grace_(std::max(1u, options.watchdog_grace)) {
  watchdog_ = std::thread([this] { watchdog_main(); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lk(admission_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
  // Jobs still queued in the pool hold no Server state beyond what their
  // lambdas captured by shared_ptr; callers (handle_line / serve_*) drain
  // before destruction, so no pool task outlives the members it touches.
}

std::uint64_t Server::retry_hint_locked() const {
  // Estimate how long until a freshly retried job would find a slot: the
  // recent per-job run time scaled by how many jobs are ahead of it.
  const double per_job = avg_run_ms_ > 0.0 ? avg_run_ms_ : 10.0;
  const double width = static_cast<double>(std::max(1u, max_inflight_));
  const double estimate =
      per_job * (static_cast<double>(queue_.size()) + 1.0) / width;
  return static_cast<std::uint64_t>(std::clamp(estimate, 1.0, 30000.0));
}

void Server::dispatch(const std::string& line,
                      const std::shared_ptr<Connection>& conn) {
  std::string id;
  try {
    if (options_.max_request_bytes != 0 &&
        line.size() > options_.max_request_bytes) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "request frame exceeds max_request_bytes");
    }
    JsonLimits limits;
    limits.max_depth = options_.max_json_depth;
    limits.max_bytes = options_.max_request_bytes;
    JsonValue document;
    try {
      document = parse_json(line, limits);
    } catch (const ParseError& error) {
      // parse_error is reserved for design payloads; a frame that is not
      // JSON at all is a malformed request.
      throw ProtocolError(ErrorCode::kBadRequest,
                          std::string("frame is not valid JSON: ") +
                              error.what());
    }
    if (document.is_object()) {
      // Recover the id before schema validation so even a malformed frame
      // gets a correlatable error envelope.
      if (const JsonValue* v = document.find("id");
          v != nullptr && v->is_string()) {
        id = v->as_string();
      }
    }
    JobRequest request = parse_request(document);

    if (request.type == JobType::kStats || request.type == JobType::kHealth ||
        request.type == JobType::kShutdown) {
      // Control requests run inline on the reader thread: they must stay
      // answerable while every pool slot is busy or the queue is full.
      jobs_accepted_.fetch_add(1, std::memory_order_relaxed);
      // Counted done before the result is built so a stats snapshot sees
      // itself on both sides of the accepted == done + failed + inflight +
      // queued invariant.
      jobs_done_.fetch_add(1, std::memory_order_relaxed);
      const auto start = Clock::now();
      JsonValue result = request.type == JobType::kStats    ? stats_result()
                         : request.type == JobType::kHealth ? health_result()
                                                            : shutdown_result();
      JobStatsWire stats;
      stats.run_ms = ms_since(start);
      conn->write(render_response(request.id, request.type, "", result,
                                  stats));
      return;
    }

    if (shutting_down()) {
      throw ProtocolError(ErrorCode::kShuttingDown,
                          "server is draining; job rejected");
    }

    auto job = std::make_shared<Job>();
    job->request = std::move(request);
    job->conn = conn;
    job->admitted = Clock::now();
    const std::uint64_t span = job->request.deadline_ms != 0
                                   ? job->request.deadline_ms
                                   : options_.default_deadline_ms;
    if (span != 0) {
      job->deadline = job->admitted + std::chrono::milliseconds(span);
      job->deadline_span_ms = span;
    }

    // The outstanding count and accepted counter go up before the job is
    // visible to the queue pump: another pool thread may start *and
    // finish* a queued job the instant the admission lock drops, and
    // job_finished must never run before job_started.
    conn->job_started();
    jobs_accepted_.fetch_add(1, std::memory_order_relaxed);
    ScopeGuard admission([&] {
      jobs_accepted_.fetch_sub(1, std::memory_order_relaxed);
      conn->job_finished();
    });

    enum class Admit { kStart, kQueue, kShed };
    Admit admit = Admit::kShed;
    std::uint64_t retry = 0;
    {
      std::lock_guard<std::mutex> lk(admission_mutex_);
      // Armed fault injection trips the admission checkpoint as synthetic
      // overload: the job is shed exactly as if the queue were full.
      const bool injected = fault_inject::trip("serve.admit");
      if (!injected && running_ < max_inflight_) {
        ++running_;
        running_jobs_.push_back(job);
        admit = Admit::kStart;
      } else if (!injected && queue_.size() < admission_queue_) {
        queue_.push_back(job);
        admit = Admit::kQueue;
      } else {
        retry = retry_hint_locked();
      }
    }

    if (admit == Admit::kShed) {
      // Load shedding: reject immediately — never admitted, never run —
      // with a backoff hint instead of blocking the reader thread.
      jobs_shed_.fetch_add(1, std::memory_order_relaxed);
      jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
      ErrorDetail detail;
      detail.retry_after_ms = retry;
      conn->write(render_error(job->request.id, ErrorCode::kOverloaded,
                               "admission queue full; retry after backoff",
                               detail));
      return;  // ~ScopeGuard unwinds the tentative admission
    }

    if (job->deadline) watchdog_cv_.notify_all();
    if (admit == Admit::kStart) {
      ScopeGuard slot([&] {
        {
          std::lock_guard<std::mutex> lk(admission_mutex_);
          running_jobs_.erase(std::find(running_jobs_.begin(),
                                        running_jobs_.end(), job));
          if (job->quarantined) {
            --quarantined_;
          } else {
            --running_;
          }
        }
        pump_queue();
      });
      submit_job(job);
      slot.dismiss();
    }
    admission.dismiss();
  } catch (const std::exception& error) {
    // Nothing past admission throws, so anything caught here was never
    // admitted: it counts as rejected, not accepted-then-failed.
    jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
    conn->write(
        render_error(id, error_code_for_exception(error), error.what()));
  }
}

void Server::submit_job(const std::shared_ptr<Job>& job) {
  pool_.submit([this, job] {
    const auto started = Clock::now();
    const std::string response = run_job(*job);
    job->conn->write(response);
    finish_job(job, ms_since(started));
    job->conn->job_finished();
  });
}

void Server::collect_runnable_locked(
    std::vector<std::shared_ptr<Job>>* to_start,
    std::vector<std::shared_ptr<Job>>* to_expire) {
  const auto now = Clock::now();
  // Dead-on-arrival jobs must not consume a freed slot.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->deadline && now > *(*it)->deadline) {
      to_expire->push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  while (running_ < max_inflight_ && !queue_.empty()) {
    std::shared_ptr<Job> job = queue_.front();
    queue_.pop_front();
    ++running_;
    running_jobs_.push_back(job);
    to_start->push_back(job);
  }
}

void Server::process_runnable(
    const std::vector<std::shared_ptr<Job>>& to_start,
    const std::vector<std::shared_ptr<Job>>& to_expire) {
  for (const std::shared_ptr<Job>& job : to_expire) {
    jobs_expired_.fetch_add(1, std::memory_order_relaxed);
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    ErrorDetail detail;
    detail.expired_in_queue = true;
    {
      std::lock_guard<std::mutex> lk(admission_mutex_);
      detail.retry_after_ms = retry_hint_locked();
    }
    job->conn->write(render_error(job->request.id, ErrorCode::kOverloaded,
                                  "deadline expired while the job was "
                                  "queued; it was not run",
                                  detail));
    job->conn->job_finished();
  }
  for (const std::shared_ptr<Job>& job : to_start) {
    try {
      submit_job(job);
    } catch (const std::exception& error) {
      // Admitted but failed to start: release the slot and answer with an
      // error envelope so the client is never left waiting.
      {
        std::lock_guard<std::mutex> lk(admission_mutex_);
        running_jobs_.erase(
            std::find(running_jobs_.begin(), running_jobs_.end(), job));
        if (job->quarantined) {
          --quarantined_;
        } else {
          --running_;
        }
      }
      jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      job->conn->write(render_error(job->request.id,
                                    error_code_for_exception(error),
                                    error.what()));
      job->conn->job_finished();
      pump_queue();
    }
  }
}

void Server::pump_queue() {
  std::vector<std::shared_ptr<Job>> to_start;
  std::vector<std::shared_ptr<Job>> to_expire;
  {
    std::lock_guard<std::mutex> lk(admission_mutex_);
    collect_runnable_locked(&to_start, &to_expire);
  }
  // Outside the lock: on a size-1 pool submit_job runs the job inline,
  // which re-enters finish_job and the admission lock.
  process_runnable(to_start, to_expire);
}

void Server::finish_job(const std::shared_ptr<Job>& job, double run_ms) {
  std::vector<std::shared_ptr<Job>> to_start;
  std::vector<std::shared_ptr<Job>> to_expire;
  {
    std::lock_guard<std::mutex> lk(admission_mutex_);
    avg_run_ms_ = avg_run_ms_ == 0.0 ? run_ms
                                     : avg_run_ms_ * 0.8 + run_ms * 0.2;
    running_jobs_.erase(
        std::find(running_jobs_.begin(), running_jobs_.end(), job));
    if (job->quarantined) {
      // A wedged job finally yielded: its written-off slot is recovered
      // (running_ was already handed back when it was quarantined).
      --quarantined_;
    } else {
      --running_;
    }
    collect_runnable_locked(&to_start, &to_expire);
  }
  process_runnable(to_start, to_expire);
}

void Server::watchdog_main() {
  std::unique_lock<std::mutex> lk(admission_mutex_);
  while (!watchdog_stop_) {
    const auto now = Clock::now();
    auto next = Clock::time_point::max();
    bool slots_freed = false;
    for (const std::shared_ptr<Job>& job : running_jobs_) {
      if (!job->deadline || job->quarantined) continue;
      if (!job->kill_fired) {
        if (now >= *job->deadline ||
            fault_inject::trip("serve.watchdog.kill")) {
          // Deadline: fire the job's token; a cooperative backend yields
          // at its next checkpoint with an exhausted verdict.
          job->cancel.request_cancel();
          job->kill_fired = true;
          watchdog_kills_.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t span =
              std::max<std::uint64_t>(job->deadline_span_ms, 1);
          job->wedge_at = *job->deadline +
                          std::chrono::milliseconds(span * watchdog_grace_);
          next = std::min(next, job->wedge_at);
        } else {
          next = std::min(next, *job->deadline);
        }
      } else if (now >= job->wedge_at) {
        // The kill was ignored past the grace window: the job is wedged.
        // Write the slot off (quarantine) so usable capacity recovers
        // instead of shrinking forever; if the job ever yields,
        // finish_job reclaims the quarantined slot.
        job->quarantined = true;
        ++quarantined_;
        --running_;
        watchdog_wedged_.fetch_add(1, std::memory_order_relaxed);
        slots_freed = true;
      } else {
        next = std::min(next, job->wedge_at);
      }
    }
    bool queue_has_expired = false;
    for (const std::shared_ptr<Job>& job : queue_) {
      if (!job->deadline) continue;
      if (now > *job->deadline) {
        queue_has_expired = true;
      } else {
        next = std::min(next, *job->deadline);
      }
    }
    if (slots_freed || queue_has_expired) {
      std::vector<std::shared_ptr<Job>> to_start;
      std::vector<std::shared_ptr<Job>> to_expire;
      collect_runnable_locked(&to_start, &to_expire);
      lk.unlock();
      process_runnable(to_start, to_expire);
      lk.lock();
      continue;  // rescan: the world changed while unlocked
    }
    if (next == Clock::time_point::max()) {
      watchdog_cv_.wait(lk);
    } else {
      watchdog_cv_.wait_until(lk, next);
    }
  }
}

std::string Server::run_job(const Job& job) {
  JobStatsWire stats;
  stats.queue_ms = ms_since(job.admitted);
  const auto start = Clock::now();
  // Queue expiry, re-checked at the last moment before any work happens:
  // a job whose deadline passed while it waited is answered without
  // running — its client has already given up on it. An armed
  // fault-injection trip behaves as a synthetic expiry.
  if ((job.deadline && start > *job.deadline) ||
      fault_inject::trip("serve.start")) {
    jobs_expired_.fetch_add(1, std::memory_order_relaxed);
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    ErrorDetail detail;
    detail.expired_in_queue = true;
    {
      std::lock_guard<std::mutex> lk(admission_mutex_);
      detail.retry_after_ms = retry_hint_locked();
    }
    return render_error(job.request.id, ErrorCode::kOverloaded,
                        "deadline expired while the job was queued; it was "
                        "not run",
                        detail);
  }
  try {
    std::string design_id;
    JsonValue result = execute(job, &stats, &design_id);
    stats.run_ms = ms_since(start);
    jobs_done_.fetch_add(1, std::memory_order_relaxed);
    return render_response(job.request.id, job.request.type, design_id,
                           result, stats);
  } catch (const std::exception& error) {
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    return render_error(job.request.id, error_code_for_exception(error),
                        error.what());
  } catch (...) {
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    return render_error(job.request.id, ErrorCode::kInternal,
                        "unexpected non-standard exception");
  }
}

JsonValue Server::execute(const Job& job, JobStatsWire* stats,
                          std::string* design_id) {
  const JobRequest& request = job.request;
  const auto a = resolve_design(request.design_text, request.design_id,
                                &stats->cache_hit);
  *design_id = a->design_id();
  JobDesigns designs;
  designs.a = &a->netlist();
  // The graph stays warm in the cache for every later validate job.
  if (request.type == JobType::kValidate) designs.graph = &a->graph();
  std::shared_ptr<const CachedDesign> b;
  if (request.type == JobType::kClsEquivalence) {
    bool b_hit = false;
    b = resolve_design(request.design_b_text, request.design_b_id, &b_hit);
    // cache_hit reports the warm path only when *both* designs skipped
    // their parse — a half-warm job still paid a parse.
    stats->cache_hit = stats->cache_hit && b_hit;
    designs.b = &b->netlist();
    designs.b_id = b->design_id();
  }

  // Per-job isolation: the job's own token (never shared across jobs), so
  // one cancelled/exhausted job cannot leak into a neighbour — and the
  // watchdog can cancel exactly this job at its deadline.
  JobEnv env;
  env.limits =
      job_limits(request.budget, options_.default_time_budget_ms, job.deadline);
  env.cancel = job.cancel;
  env.deadline = job.deadline;
  env.chaos_hooks = options_.chaos_hooks;
  JobOutput out = serve::run_job(request.type, request.options, designs, env);
  stats->verdict = std::move(out.verdict);
  if (out.usage) {
    stats->usage = *out.usage;
    stats->governed = true;
  }
  return std::move(out.result);
}

std::shared_ptr<const CachedDesign> Server::resolve_design(
    const std::optional<std::string>& text,
    const std::optional<std::string>& id, bool* cache_hit) {
  if (id) {
    auto entry = cache_.find(*id);
    if (!entry) {
      throw ProtocolError(ErrorCode::kDesignNotFound,
                          "design_id \"" + *id +
                              "\" is not (or no longer) cached; resend the "
                              "design inline");
    }
    *cache_hit = true;
    return entry;
  }
  return cache_.intern(*text, cache_hit);
}

JsonValue Server::stats_result() const {
  const ServeStats s = stats();
  JsonValue::Object out;
  out.emplace_back("jobs_accepted", uint_json(s.jobs_accepted));
  out.emplace_back("jobs_done", uint_json(s.jobs_done));
  out.emplace_back("jobs_failed", uint_json(s.jobs_failed));
  out.emplace_back("jobs_rejected", uint_json(s.jobs_rejected));
  out.emplace_back("jobs_shed", uint_json(s.jobs_shed));
  out.emplace_back("jobs_expired", uint_json(s.jobs_expired));
  out.emplace_back("watchdog_kills", uint_json(s.watchdog_kills));
  out.emplace_back("watchdog_wedged", uint_json(s.watchdog_wedged));
  out.emplace_back("write_timeouts", uint_json(s.write_timeouts));
  out.emplace_back("inflight", uint_json(s.inflight));
  out.emplace_back("queued", uint_json(s.queued));
  out.emplace_back("quarantined", uint_json(s.quarantined));
  out.emplace_back("max_inflight", uint_json(s.max_inflight));
  out.emplace_back("admission_queue", uint_json(s.admission_queue));
  out.emplace_back("threads", uint_json(s.threads));
  out.emplace_back("shutting_down", JsonValue(s.shutting_down));
  JsonValue::Object cache;
  cache.emplace_back("hits", uint_json(s.cache.hits));
  cache.emplace_back("misses", uint_json(s.cache.misses));
  cache.emplace_back("evictions", uint_json(s.cache.evictions));
  cache.emplace_back("entries", uint_json(s.cache.entries));
  cache.emplace_back("bytes", uint_json(s.cache.bytes));
  cache.emplace_back("byte_cap", uint_json(s.cache.byte_cap));
  out.emplace_back("cache", JsonValue(std::move(cache)));
  return JsonValue(std::move(out));
}

JsonValue Server::health_result() const {
  // Answered inline on the reader thread — one cheap snapshot, no pool
  // slot, so liveness probes work even when the server is saturated.
  unsigned running = 0;
  unsigned queued = 0;
  unsigned quarantined = 0;
  bool full = false;
  {
    std::lock_guard<std::mutex> lk(admission_mutex_);
    running = running_;
    queued = static_cast<unsigned>(queue_.size());
    quarantined = quarantined_;
    full = running_ >= max_inflight_ && queue_.size() >= admission_queue_;
  }
  const char* status =
      shutting_down() ? "draining" : (full ? "overloaded" : "ok");
  JsonValue::Object out;
  out.emplace_back("status", JsonValue(std::string(status)));
  out.emplace_back("inflight", uint_json(running));
  out.emplace_back("queued", uint_json(queued));
  out.emplace_back("quarantined", uint_json(quarantined));
  out.emplace_back("max_inflight", uint_json(max_inflight_));
  out.emplace_back("admission_queue", uint_json(admission_queue_));
  return JsonValue(std::move(out));
}

JsonValue Server::shutdown_result() {
  begin_shutdown();
  unsigned inflight;
  {
    std::lock_guard<std::mutex> lk(admission_mutex_);
    inflight = running_ + static_cast<unsigned>(queue_.size());
  }
  JsonValue::Object out;
  out.emplace_back("draining", JsonValue(true));
  out.emplace_back("inflight", uint_json(inflight));
  return JsonValue(std::move(out));
}

ServeStats Server::stats() const {
  ServeStats s;
  s.jobs_accepted = jobs_accepted_.load(std::memory_order_relaxed);
  s.jobs_done = jobs_done_.load(std::memory_order_relaxed);
  s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  s.jobs_rejected = jobs_rejected_.load(std::memory_order_relaxed);
  s.jobs_shed = jobs_shed_.load(std::memory_order_relaxed);
  s.jobs_expired = jobs_expired_.load(std::memory_order_relaxed);
  s.watchdog_kills = watchdog_kills_.load(std::memory_order_relaxed);
  s.watchdog_wedged = watchdog_wedged_.load(std::memory_order_relaxed);
  s.write_timeouts = write_timeouts_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(admission_mutex_);
    s.inflight = running_;
    s.queued = static_cast<unsigned>(queue_.size());
    s.quarantined = quarantined_;
  }
  s.max_inflight = max_inflight_;
  s.admission_queue = admission_queue_;
  s.threads = job_workers();
  s.shutting_down = shutting_down();
  s.cache = cache_.stats();
  return s;
}

void Server::begin_shutdown() {
  if (shutting_down_.exchange(true, std::memory_order_acq_rel)) return;
  // Interrupt the accept loop and every blocked connection read; readers
  // observe EOF, stop dispatching, and drain their in-flight jobs.
  std::lock_guard<std::mutex> lk(fds_mutex_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
}

std::string Server::handle_line(const std::string& line) {
  auto conn = std::make_shared<Connection>();
  std::string response;
  conn->sink = [&response](const std::string& frame) { response = frame; };
  dispatch(line, conn);
  conn->wait_drained();  // synchronizes the pool thread's write
  return response;
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  auto conn = std::make_shared<Connection>();
  conn->sink = [&out](const std::string& frame) {
    out << frame << '\n';
    out.flush();
  };
  std::string line;
  while (!shutting_down() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    dispatch(line, conn);
  }
  conn->wait_drained();
}

void Server::serve_fd(int fd) {
  auto conn = std::make_shared<Connection>();
  // Once one frame times out the connection is written off: later frames
  // are dropped immediately instead of each burning a fresh timeout.
  auto write_dead = std::make_shared<std::atomic<bool>>(false);
  conn->sink = [this, fd, write_dead](const std::string& frame) {
    if (write_dead->load(std::memory_order_relaxed)) return;
    std::string out = frame;
    out.push_back('\n');
    // time_point::max() stands for "no write deadline".
    const Clock::time_point give_up =
        options_.write_timeout_ms != 0
            ? Clock::now() +
                  std::chrono::milliseconds(options_.write_timeout_ms)
            : Clock::time_point::max();
    std::size_t off = 0;
    while (off < out.size()) {
      // MSG_NOSIGNAL: a client that hung up must cost us an error return,
      // not a process-wide SIGPIPE. MSG_DONTWAIT keeps the pool thread
      // off a blocking send so the write deadline below is enforceable
      // even against a reader that never drains its socket.
      const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        int wait_ms = -1;
        if (give_up != Clock::time_point::max()) {
          const double remaining =
              std::chrono::duration<double, std::milli>(give_up -
                                                        Clock::now())
                  .count();
          if (remaining <= 0) {
            // Slow-reader backpressure turned into a stall: sever the
            // connection instead of wedging this pool thread. The reader
            // loop observes EOF and drains normally.
            write_dead->store(true, std::memory_order_relaxed);
            write_timeouts_.fetch_add(1, std::memory_order_relaxed);
            ::shutdown(fd, SHUT_RDWR);
            return;
          }
          wait_ms = static_cast<int>(std::min(remaining, 1000.0)) + 1;
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        ::poll(&pfd, 1, wait_ms);
        continue;
      }
      return;  // client gone; drop the rest of the frame
    }
  };

  std::string buffer;
  char chunk[4096];
  while (!shutting_down()) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or shutdown(SHUT_RD)
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      dispatch(line, conn);
      if (shutting_down()) break;
    }
    if (options_.max_request_bytes != 0 &&
        buffer.size() > options_.max_request_bytes) {
      conn->write(render_error("", ErrorCode::kBadRequest,
                               "unterminated frame exceeds "
                               "max_request_bytes"));
      break;
    }
  }
  conn->wait_drained();
}

void Server::serve_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw InvalidArgument("socket path empty or too long: \"" + path + "\"");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw IoError("bind/listen on \"" + path + "\": " + why);
  }
  {
    std::lock_guard<std::mutex> lk(fds_mutex_);
    listen_fd_ = fd;
  }

  std::vector<std::thread> readers;
  for (;;) {
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (graceful) or fatal accept error
    }
    if (shutting_down()) {
      ::close(cfd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(fds_mutex_);
      conn_fds_.push_back(cfd);
    }
    readers.emplace_back([this, cfd] {
      serve_fd(cfd);
      {
        std::lock_guard<std::mutex> lk(fds_mutex_);
        conn_fds_.erase(
            std::find(conn_fds_.begin(), conn_fds_.end(), cfd));
      }
      ::close(cfd);
    });
  }

  for (std::thread& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lk(fds_mutex_);
    listen_fd_ = -1;
  }
  ::close(fd);
  ::unlink(path.c_str());
}

}  // namespace rtv::serve
