#pragma once
// The `rtv serve` daemon core: a long-running verification service that
// accepts newline-delimited JSON job requests (serve/protocol.hpp) over a
// Unix-domain socket or a stdin/stdout pipe, dispatches them onto the
// work-stealing ThreadPool, and isolates every job behind its own
// ResourceBudget + CancellationToken — an exhausted job degrades to a
// labeled verdict in its own response, it never takes the process (or a
// neighbouring job) down with it.
//
// Concurrency model:
//  * one reader thread per connection parses frames and submits jobs;
//  * up to --max-inflight jobs run at once; beyond that a bounded
//    admission queue (--admission-queue) holds jobs, and when the queue is
//    also full new jobs are shed immediately with an "overloaded" error
//    envelope carrying a retry_after_ms hint — the reader never blocks, so
//    an overloaded server stays responsive instead of stalling;
//  * a request's deadline_ms (or --default-deadline-ms) becomes an
//    absolute deadline at admission: queue wait counts against it, a job
//    whose deadline expires while queued is rejected without running, and
//    a running job is cancelled by the watchdog when its deadline passes;
//  * a watchdog thread fires each overdue job's CancellationToken; a job
//    that still hasn't yielded after the --watchdog-grace multiple of its
//    deadline span is recorded as wedged and its slot quarantined, so a
//    stuck backend degrades capacity by exactly one slot instead of
//    wedging the server;
//  * responses are written as jobs finish, possibly out of request order;
//    clients correlate by "id";
//  * stats/health/shutdown are control requests answered inline on the
//    reader thread, so they cannot be starved by a full job queue;
//  * socket writes time out after --write-timeout-ms: a client that stops
//    reading has its connection severed rather than wedging a pool thread
//    mid-write;
//  * shutdown flips a flag, stops all readers and the accept loop, lets
//    in-flight (running + queued) jobs drain, then the serve loop returns.
//
// Designs are interned in a content-addressed DesignCache shared by all
// connections (serve/design_cache.hpp); a response's stats.cache_hit says
// whether the job skipped the parse.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/design_cache.hpp"
#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace rtv::serve {

struct ServeOptions {
  /// Job worker threads; 0 = one per hardware thread. With 1, jobs run
  /// inline on the reader thread (serial mode).
  unsigned threads = 0;
  /// Max jobs running at once; 0 = the resolved job worker count.
  unsigned max_inflight = 0;
  /// Admission queue depth beyond the running slots; a job arriving with
  /// the queue full is shed with an "overloaded" envelope. 0 = twice the
  /// resolved max_inflight.
  unsigned admission_queue = 0;
  /// Wall-clock budget applied to any job whose request does not carry its
  /// own budget.time_ms; 0 = no default deadline.
  std::uint64_t default_time_budget_ms = 0;
  /// Deadline applied to any job whose request does not carry its own
  /// deadline_ms; 0 = no default deadline.
  std::uint64_t default_deadline_ms = 0;
  /// Watchdog grace multiple: a job cancelled at its deadline that still
  /// has not yielded after grace × its deadline span is recorded as wedged
  /// and its slot quarantined. Minimum 1.
  unsigned watchdog_grace = 4;
  /// Per-frame socket write timeout; a client that stops reading past this
  /// has its connection severed. 0 = block forever (pre-v3 behaviour).
  std::uint64_t write_timeout_ms = 10000;
  /// DesignCache byte cap; 0 disables retention (every job re-parses).
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Hard cap on one request frame's size; larger frames are rejected with
  /// a bad_request envelope before JSON parsing.
  std::size_t max_request_bytes = std::size_t{32} << 20;
  /// JSON nesting depth cap for request frames (io/json JsonLimits).
  std::size_t max_json_depth = 64;
  /// Test-only: accept chaos_* options on simulate jobs (deterministic
  /// spin/wedge handlers the overload tests and bench drive). Never
  /// enabled by the CLI.
  bool chaos_hooks = false;
};

/// Snapshot reported by the "stats" job type and Server::stats().
///
/// Counter semantics (the quiescent invariant the tests assert):
///   jobs_accepted == jobs_done + jobs_failed + inflight + queued
/// A request that was never admitted — malformed, shed by admission
/// control, or refused while draining — counts in jobs_rejected only.
struct ServeStats {
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_done = 0;      ///< success responses written
  std::uint64_t jobs_failed = 0;    ///< error envelopes for admitted jobs
  std::uint64_t jobs_rejected = 0;  ///< error envelopes, never admitted
  std::uint64_t jobs_shed = 0;      ///< rejections due to a full queue
  std::uint64_t jobs_expired = 0;   ///< admitted, deadline died in queue
  std::uint64_t watchdog_kills = 0;   ///< deadline cancellations fired
  std::uint64_t watchdog_wedged = 0;  ///< kills that missed the grace window
  std::uint64_t write_timeouts = 0;   ///< connections severed mid-write
  unsigned inflight = 0;       ///< jobs running now (excludes quarantined)
  unsigned queued = 0;         ///< jobs waiting in the admission queue
  unsigned quarantined = 0;    ///< wedged slots currently written off
  unsigned max_inflight = 0;
  unsigned admission_queue = 0;  ///< queue capacity
  unsigned threads = 0;          ///< job worker threads
  bool shutting_down = false;
  DesignCacheStats cache;
};

class Server {
 public:
  explicit Server(const ServeOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Processes one request frame synchronously and returns its response
  /// frame (no trailing newline). Thread-safe; used by tests and makes
  /// every handler reachable without a socket.
  std::string handle_line(const std::string& line);

  /// NDJSON loop over a stream pair: one request per input line, one
  /// response per output line. Returns after EOF or a shutdown request,
  /// once every in-flight job has written its response.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Binds a Unix-domain stream socket at `path` (replacing any stale
  /// file), accepts connections until a shutdown request arrives, drains,
  /// unlinks the socket and returns. One reader thread per connection.
  /// Throws IoError when the socket cannot be created or bound.
  void serve_socket(const std::string& path);

  ServeStats stats() const;
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

 private:
  struct Connection;  // per-connection write ordering + drain tracking

  /// One admitted job, shared between the admission queue, the pool task
  /// that runs it, and the watchdog. The watchdog flags (kill_fired,
  /// quarantined, wedge_at) are guarded by admission_mutex_.
  struct Job {
    JobRequest request;
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point admitted;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::uint64_t deadline_span_ms = 0;  ///< resolved deadline_ms
    CancellationToken cancel;
    bool kill_fired = false;
    bool quarantined = false;
    std::chrono::steady_clock::time_point wedge_at{};
  };

  /// Parses one frame and either answers inline (control requests,
  /// malformed frames, shed jobs) or admits a job: started immediately
  /// when a slot is free, else queued. The connection's outstanding count
  /// is raised at admission so wait_drained() cannot miss the job.
  void dispatch(const std::string& line,
                const std::shared_ptr<Connection>& conn);

  /// Runs one admitted job on a pool thread; always returns a response
  /// frame. Checks the job's deadline first: a job that expired while
  /// queued is answered with an "overloaded" envelope without running.
  std::string run_job(const Job& job);

  /// Enqueues the pool task for an already-admitted job holding a running
  /// slot. May run the job inline on a size-1 pool. Throws only before
  /// the task is queued (callers unwind the admission).
  void submit_job(const std::shared_ptr<Job>& job);

  /// Job completion: frees the slot (or clears quarantine), feeds the
  /// run-time average behind retry_after_ms, and pumps the queue.
  void finish_job(const std::shared_ptr<Job>& job, double run_ms);

  /// Moves queued jobs into freed slots (collecting expired ones) and
  /// processes them outside the admission lock.
  void pump_queue();

  /// Pops every queued job that fits a free slot into *to_start and every
  /// queued job whose deadline has passed into *to_expire. Caller holds
  /// admission_mutex_.
  void collect_runnable_locked(std::vector<std::shared_ptr<Job>>* to_start,
                               std::vector<std::shared_ptr<Job>>* to_expire);

  /// Starts/expires the jobs collect_runnable_locked() produced. Must be
  /// called without admission_mutex_ held: on a size-1 pool a started job
  /// runs inline and re-enters the admission path.
  void process_runnable(const std::vector<std::shared_ptr<Job>>& to_start,
                        const std::vector<std::shared_ptr<Job>>& to_expire);

  /// retry_after_ms hint for a shed/expired job: the run-time average
  /// scaled by queue occupancy. Caller holds admission_mutex_.
  std::uint64_t retry_hint_locked() const;

  void watchdog_main();

  /// Resolves the job's designs through the cache and runs it through the
  /// job layer (serve/jobs.hpp) under its own budget, token and deadline.
  /// Returns the "result" object and fills the wire stats (verdict, usage,
  /// cache_hit).
  JsonValue execute(const Job& job, JobStatsWire* stats,
                    std::string* design_id);
  JsonValue stats_result() const;
  JsonValue health_result() const;
  JsonValue shutdown_result();

  std::shared_ptr<const CachedDesign> resolve_design(
      const std::optional<std::string>& text,
      const std::optional<std::string>& id, bool* cache_hit);

  void begin_shutdown();
  void serve_fd(int fd);

  /// Threads that run jobs: every pool participant but the idle caller.
  unsigned job_workers() const { return std::max(1u, pool_.size() - 1); }

  const ServeOptions options_;
  ThreadPool pool_;
  DesignCache cache_;
  unsigned max_inflight_;
  unsigned admission_queue_;
  unsigned watchdog_grace_;

  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint64_t> jobs_accepted_{0};
  std::atomic<std::uint64_t> jobs_done_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_shed_{0};
  std::atomic<std::uint64_t> jobs_expired_{0};
  std::atomic<std::uint64_t> watchdog_kills_{0};
  std::atomic<std::uint64_t> watchdog_wedged_{0};
  std::atomic<std::uint64_t> write_timeouts_{0};

  /// Admission state: running/queued jobs, the watchdog's view of both,
  /// and the run-time average behind retry_after_ms.
  mutable std::mutex admission_mutex_;
  std::condition_variable watchdog_cv_;
  unsigned running_ = 0;      ///< slots in use (quarantined slots excluded)
  unsigned quarantined_ = 0;  ///< wedged slots currently written off
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::shared_ptr<Job>> running_jobs_;
  double avg_run_ms_ = 0.0;  ///< EWMA over finished jobs (0 = no sample)
  bool watchdog_stop_ = false;
  std::thread watchdog_;

  /// Listener + live connection fds, tracked so begin_shutdown() can
  /// interrupt blocked accept()/read() calls with shutdown(2).
  std::mutex fds_mutex_;
  int listen_fd_ = -1;
  std::vector<int> conn_fds_;
};

}  // namespace rtv::serve
