#include "util/thread_pool.hpp"

#include <algorithm>

namespace rtv {

unsigned ThreadPool::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = resolve_threads(threads);
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n - 1);
  for (unsigned i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  wake_all_workers();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::wake_all_workers() {
  for (unsigned i = 1; i < size(); ++i) queues_[i]->wake.notify_one();
}

void ThreadPool::worker_main(unsigned self) {
  std::uint64_t seen = 0;
  for (;;) {
    bool in_job = false;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!stopping_ && generation_ == seen &&
             tasks_pending_.load(std::memory_order_acquire) == 0) {
        // Sleep as the most recently idle worker: submit wakes from the
        // back of idle_, so a lone stream of tasks stays on one thread.
        idle_.push_back(self);
        queues_[self]->wake.wait(lk);
        const auto it = std::find(idle_.begin(), idle_.end(), self);
        if (it != idle_.end()) idle_.erase(it);
      }
      if (stopping_) return;
      if (generation_ != seen) {
        seen = generation_;
        ++active_;
        in_job = true;
      }
    }
    if (in_job) {
      participate(self);
      std::lock_guard<std::mutex> lk(mutex_);
      if (--active_ == 0) done_cv_.notify_all();
    }
    // Whether woken for a job or a task, drain any queued tasks before
    // sleeping again (a task submitted during a job waits for this point).
    drain_tasks(self);
  }
}

bool ThreadPool::pop_or_steal(unsigned self, Chunk* out) {
  {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lk(own.mutex);
    if (!own.chunks.empty()) {
      *out = own.chunks.back();
      own.chunks.pop_back();
      return true;
    }
  }
  const unsigned n = size();
  for (unsigned d = 1; d < n; ++d) {
    Queue& victim = *queues_[(self + d) % n];
    std::lock_guard<std::mutex> lk(victim.mutex);
    if (!victim.chunks.empty()) {
      *out = victim.chunks.front();  // steal the oldest chunk
      victim.chunks.pop_front();
      return true;
    }
  }
  return false;
}

bool ThreadPool::pop_or_steal_task(unsigned self,
                                   std::function<void()>* out) {
  const unsigned n = size();
  for (unsigned d = 0; d < n; ++d) {
    Queue& q = *queues_[(self + d) % n];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      tasks_pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void ThreadPool::drain_tasks(unsigned self) {
  std::function<void()> task;
  while (pop_or_steal_task(self, &task)) {
    try {
      task();
    } catch (...) {
      // Tasks own their error reporting (a serve handler renders every
      // failure into a response); an exception reaching here has nowhere
      // to go on a fire-and-forget path, so it is dropped.
    }
    task = nullptr;
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (size() == 1) {
    // No workers to hand the task to: run it inline so it cannot languish.
    task();
    return;
  }
  const std::size_t slot =
      next_task_queue_.fetch_add(1, std::memory_order_relaxed) % size();
  {
    Queue& q = *queues_[slot];
    std::lock_guard<std::mutex> lk(q.mutex);
    q.tasks.push_back(std::move(task));
  }
  tasks_pending_.fetch_add(1, std::memory_order_release);
  unsigned target = 0;
  {
    // Fence against the sleep path: a worker between its predicate check
    // (which saw no pending tasks) and blocking still holds mutex_, so by
    // the time this lock is taken it is asleep and listed in idle_. With
    // no worker idle, a busy one drains the task when it finishes.
    std::lock_guard<std::mutex> lk(mutex_);
    if (!idle_.empty()) {
      target = idle_.back();
      idle_.pop_back();
    }
  }
  if (target != 0) queues_[target]->wake.notify_one();
}

void ThreadPool::participate(unsigned self) {
  // body_ is valid whenever a chunk is held: the job (body_, remaining_,
  // generation_) is installed under mutex_ before any chunk is published,
  // each pop happens-after its push via the per-queue mutex, and
  // parallel_for cannot return (and so the next job cannot install a new
  // body) while any chunk — including one held here — is unfinished.
  Chunk c;
  while (pop_or_steal(self, &c)) {
    try {
      (*body_)(c.begin, c.end);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mutex_);
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t total, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (total == 0) return;
  if (grain == 0) grain = 1;
  std::lock_guard<std::mutex> serial(job_mutex_);
  {
    // Wait out stragglers still draining the previous job's (empty) queues.
    // Safety against stale wakeups comes from the install-before-publish
    // order below; this wait just keeps active_ accounting per-job.
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] { return active_ == 0; });
  }
  const unsigned n = size();
  const std::size_t num_chunks = (total + grain - 1) / grain;
  {
    // Install the job BEFORE publishing any chunk. A straggler from the
    // previous generation that slipped past the active_ == 0 wait above can
    // only ever observe either (a) empty queues — it retires harmlessly,
    // because the caller participates and drains everything — or (b) a chunk
    // of THIS job, whose pop (under the queue mutex that also guarded the
    // push below) happens-after this install, so body_/remaining_ are the
    // new job's. Pushing chunks first would let such a worker run a fresh
    // chunk through the previous, dangling body_ and underflow remaining_.
    std::lock_guard<std::mutex> lk(mutex_);
    body_ = &body;
    error_ = nullptr;
    remaining_ = num_chunks;
    ++generation_;
  }
  for (std::size_t chunk = 0, begin = 0; begin < total;
       ++chunk, begin += grain) {
    const Chunk c{begin, std::min(total, begin + grain)};
    Queue& q = *queues_[chunk % n];
    std::lock_guard<std::mutex> lk(q.mutex);
    q.chunks.push_back(c);
  }
  wake_all_workers();
  participate(0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rtv
