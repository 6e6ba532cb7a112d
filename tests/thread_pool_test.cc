// ThreadPool + WaitGroup semantics: group completion (Wait observes every
// submitted task), reuse across batches, round-robin spread, and
// concurrent groups on one pool — the contract the wave scheduler's
// barriers are built on.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sched/thread_pool.h"

namespace taco {
namespace {

TEST(WaitGroupTest, WaitReturnsImmediatelyWhenEmpty) {
  WaitGroup group;
  group.Wait();  // Must not block.
}

TEST(WaitGroupTest, WaitBlocksUntilAllTasksDone) {
  ThreadPool pool(4);
  WaitGroup group;
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit(&group, [&] { done.fetch_add(1); });
  }
  group.Wait();
  // Every task finished strictly before Wait returned.
  EXPECT_EQ(done.load(), kTasks);
}

TEST(WaitGroupTest, GroupIsReusableAcrossBatches) {
  ThreadPool pool(2);
  WaitGroup group;
  std::atomic<int> done{0};
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 8; ++i) {
      pool.Submit(&group, [&] { done.fetch_add(1); });
    }
    group.Wait();
    // The barrier property the scheduler depends on: after Wait, the
    // batch is complete — no task of it is still in flight.
    EXPECT_EQ(done.load(), (batch + 1) * 8);
  }
}

TEST(WaitGroupTest, ConcurrentGroupsOnOnePoolAreIndependent) {
  ThreadPool pool(4);
  WaitGroup a, b;
  std::atomic<int> done_a{0}, done_b{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit(&a, [&] { done_a.fetch_add(1); });
    pool.Submit(&b, [&] { done_b.fetch_add(1); });
  }
  a.Wait();
  EXPECT_EQ(done_a.load(), 32);
  b.Wait();
  EXPECT_EQ(done_b.load(), 32);
}

TEST(WaitGroupTest, ManualAddDoneFromWorkerThreads) {
  WaitGroup group;
  group.Add(3);
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      done.fetch_add(1);
      group.Done();
    });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 3);
  for (auto& t : threads) t.join();
}

TEST(ThreadPoolTest, GroupSubmissionsSpreadAcrossWorkers) {
  // N consecutive group submissions must be able to run concurrently
  // (round-robin placement): N tasks that all wait for each other would
  // deadlock on a single queue, and complete only if spread out.
  constexpr int kWidth = 4;
  ThreadPool pool(kWidth);
  WaitGroup group;
  std::atomic<int> arrived{0};
  for (int i = 0; i < kWidth; ++i) {
    pool.Submit(&group, [&] {
      arrived.fetch_add(1);
      // Spin until every task of the wave is running — only possible
      // when each landed on its own worker.
      while (arrived.load() < kWidth) std::this_thread::yield();
    });
  }
  group.Wait();
  EXPECT_EQ(arrived.load(), kWidth);
}

TEST(ThreadPoolTest, DestructorDrainsQueues) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }  // ~ThreadPool drains, then joins.
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace taco
