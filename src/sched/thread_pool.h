// A small fixed-size worker pool, plus the WaitGroup completion
// primitive the recalc scheduler's wave barriers are built on.
//
// The recalc scheduler submits a batch of tasks and blocks until ALL of
// them have finished (a wave barrier). Each worker owns a queue and
// submissions go round robin, so N consecutive tasks land on N distinct
// workers; WaitGroup provides the barrier without coupling the pool to
// any scheduler type.

#ifndef TACO_SCHED_THREAD_POOL_H_
#define TACO_SCHED_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace taco {

/// Counts outstanding tasks and lets one thread block until they all
/// complete — the Go-style wait group, sized down to what the wave
/// scheduler needs. Add before (or while) tasks are submitted, Done once
/// per finished task, Wait until the count returns to zero. A WaitGroup
/// is reusable: after Wait returns it can count a fresh batch.
///
/// The caller must not let the count go negative (Done without Add), and
/// must not destroy the group while tasks still hold it.
class WaitGroup {
 public:
  /// Registers `n` tasks that Wait must block on.
  void Add(int n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }

  /// Marks one task complete; wakes waiters when the count reaches zero.
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  /// Blocks until every added task has called Done. Returns immediately
  /// when nothing is outstanding.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t count_ = 0;
};

/// Fixed pool of workers, one task queue per worker.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains every queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` on the next worker (round robin); no ordering
  /// guarantee relative to other tasks.
  void Submit(std::function<void()> task);

  /// Enqueues `task` under `group`: the group is Add'ed before the task
  /// is queued and Done'd after it runs, so `group->Wait()` blocks until
  /// every task submitted under it has finished. Round-robin placement
  /// like the plain Submit — N consecutive submissions land on N
  /// distinct workers (N <= pool size), which is what the wave
  /// scheduler's per-context tasks need.
  void Submit(WaitGroup* group, std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Queue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> next_queue_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace taco

#endif  // TACO_SCHED_THREAD_POOL_H_
