#include "sched/thread_pool.h"

#include <algorithm>
#include <utility>

namespace taco {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true);
  for (auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mu);
    queue->cv.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Queue& queue = *queues_[next_queue_.fetch_add(1) % queues_.size()];
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    queue.tasks.push_back(std::move(task));
  }
  queue.cv.notify_one();
}

void ThreadPool::Submit(WaitGroup* group, std::function<void()> task) {
  // Add BEFORE the task is queued: a Wait racing the submission must see
  // the task as outstanding, never a zero count between queue and run.
  group->Add(1);
  Submit([group, task = std::move(task)] {
    task();
    group->Done();
  });
}

void ThreadPool::WorkerLoop(size_t index) {
  Queue& queue = *queues_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue.mu);
      queue.cv.wait(lock, [&] {
        return shutdown_.load() || !queue.tasks.empty();
      });
      if (queue.tasks.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue.tasks.front());
      queue.tasks.pop_front();
    }
    task();
  }
}

}  // namespace taco
