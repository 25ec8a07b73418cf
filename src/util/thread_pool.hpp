#pragma once
// Work-stealing thread pool — the repository's first threading primitive.
//
// Two scheduling modes share one set of workers:
//
//   parallel_for — data-parallel loops over an index range. Each
//   participant — the calling thread plus size()-1 persistent workers —
//   owns a deque of [begin, end) chunks. Owners pop from the back of their
//   own deque; a participant that runs dry steals the *oldest* chunk from
//   the front of a victim's deque, which keeps contention low (owner and
//   thief touch opposite ends) and migrates the largest remaining runs of
//   work. The calling thread always participates, so a pool of size 1
//   executes entirely inline through the same code path — threaded and
//   serial runs cannot diverge behaviourally.
//
//   submit — fire-and-forget one-off tasks (the serve daemon's job
//   dispatch). Tasks land round-robin on per-participant task deques and
//   are popped/stolen by the same discipline as chunks. Workers drain
//   tasks whenever no parallel_for job occupies them; the parallel_for
//   caller never runs tasks, so a loop cannot block on an unrelated job.
//   A task wakes the most recently idle worker, so a lone stream of tasks
//   (one serve client at a time) keeps running on one warm thread.
//
// Guarantees and limits:
//   - The set of chunks and their [begin, end) bounds are deterministic;
//     only the execution order and thread assignment vary between runs.
//   - Exceptions thrown by a parallel_for body are captured; the job
//     drains and the first captured exception is rethrown on the calling
//     thread. Tasks must not throw: an escaped task exception is swallowed
//     (a serve job handler converts every failure into a response).
//   - One parallel_for at a time: concurrent calls serialize, and calling
//     parallel_for from inside a body deadlocks (unsupported). Tasks run
//     concurrently with each other and with a parallel_for job.
//   - Destruction drops tasks still queued (not yet started); callers that
//     need completion track it themselves (see serve::Server's inflight
//     accounting).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rtv {

class ThreadPool {
 public:
  /// Spawns `resolve_threads(threads) - 1` workers (the caller is the
  /// remaining participant).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants, including the calling thread.
  unsigned size() const { return static_cast<unsigned>(queues_.size()); }

  /// 0 means "one per hardware thread" (at least 1); any other value is
  /// taken literally.
  static unsigned resolve_threads(unsigned requested);

  /// Splits [0, total) into chunks of at most `grain` indices and runs
  /// `body(begin, end)` over every chunk across the pool, work-stealing
  /// balanced. Blocks until all chunks finish; rethrows the first body
  /// exception.
  void parallel_for(std::size_t total, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Enqueues one fire-and-forget task for an idle worker (round-robin
  /// placement, work-stealing pickup). Returns immediately. On a pool of
  /// size 1 (no workers) the task runs inline before submit returns —
  /// callers get synchronous execution instead of a task that never runs.
  void submit(std::function<void()> task);

  /// Tasks submitted but not yet started (queue-depth introspection for
  /// callers that layer admission control on top, e.g. serve::Server).
  std::size_t pending_tasks() const {
    return tasks_pending_.load(std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    std::size_t begin = 0, end = 0;
  };
  struct Queue {
    std::mutex mutex;
    std::deque<Chunk> chunks;
    std::deque<std::function<void()>> tasks;  ///< submit()-mode items
    std::condition_variable wake;  ///< its worker sleeps here (on mutex_)
  };

  void worker_main(unsigned self);
  void participate(unsigned self);
  bool pop_or_steal(unsigned self, Chunk* out);
  bool pop_or_steal_task(unsigned self, std::function<void()>* out);
  void drain_tasks(unsigned self);
  void wake_all_workers();

  std::vector<std::unique_ptr<Queue>> queues_;  ///< one per participant
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> tasks_pending_{0};
  std::atomic<std::size_t> next_task_queue_{0};  ///< round-robin submit

  std::mutex job_mutex_;  ///< serializes parallel_for callers

  std::mutex mutex_;  ///< guards the fields below
  std::condition_variable done_cv_;
  std::vector<unsigned> idle_;  ///< sleeping workers, most recent last
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;  ///< chunks of the current job not yet finished
  unsigned active_ = 0;        ///< workers currently inside participate()
  std::exception_ptr error_;
  bool stopping_ = false;
};

}  // namespace rtv
