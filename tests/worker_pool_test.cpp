// core::WorkerPool: every index of every phase runs exactly once, a phase
// joins on its tasks (never on a worker that wakes after they are all
// claimed), a throw skips the rest of its phase only, and the pool shuts
// down with its workers asleep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/worker_pool.hpp"

namespace sops::core {
namespace {

/// Long enough for every worker to pass its yield-spins and sleep.
void letWorkersSleep() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  for (const unsigned threads : {2u, 4u}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> runs(16);
    for (std::size_t phase = 0; phase < 10000; ++phase) {
      const std::size_t count = (phase * 7 + phase / 16) % 17;  // 0 … 16
      for (std::atomic<int>& r : runs) r.store(0, std::memory_order_relaxed);
      // A function that lives only as long as its phase: a late worker
      // that read it after run() returned would read a dead object.
      auto fn = std::make_unique<std::function<void(std::size_t)>>(
          [&runs, count](std::size_t i) {
            ASSERT_LT(i, count);
            runs[i].fetch_add(1, std::memory_order_relaxed);
          });
      pool.run(count, *fn);
      fn.reset();
      for (std::size_t i = 0; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].load(std::memory_order_relaxed), i < count ? 1 : 0)
            << "threads " << threads << ", phase " << phase << ", index "
            << i;
      }
    }
  }
}

TEST(WorkerPool, PhaseReturnsWithoutASleepingWorker) {
  // With the workers asleep, the caller claims the phase's indices before
  // any of them is up: run() returns once those tasks are done, and each
  // worker, waking into an exhausted or a later phase, runs nothing twice.
  WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    letWorkersSleep();
    std::atomic<int> single{0};
    pool.run(1, [&](std::size_t i) {
      EXPECT_EQ(i, 0u);
      single.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(single.load(), 1);
    std::vector<std::atomic<int>> runs(16);
    pool.run(runs.size(), [&](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const std::atomic<int>& r : runs) ASSERT_EQ(r.load(), 1);
    EXPECT_EQ(single.load(), 1);
  }
}

TEST(WorkerPool, FirstThrowIsRethrownAndSkipsTheRestOfItsPhaseOnly) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    WorkerPool pool(threads);
    std::atomic<int> ran{0};
    // Index 0 throws at once, the others take 50 µs: the indices not yet
    // claimed when it throws are skipped, those already claimed by other
    // threads still finish.
    EXPECT_THROW(pool.run(1000,
                          [&](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i == 0) throw std::runtime_error("task 0");
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(50));
                          }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
    EXPECT_LT(ran.load(), 1000);
    // The next phase runs normally, every index once.
    std::vector<std::atomic<int>> runs(64);
    pool.run(runs.size(), [&](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const std::atomic<int>& r : runs) ASSERT_EQ(r.load(), 1);
    // Two throwing tasks: one exception out, the pool still usable.
    EXPECT_THROW(pool.run(8,
                          [](std::size_t i) {
                            if (i % 4 == 1) throw std::logic_error("odd");
                          }),
                 std::logic_error);
    std::atomic<int> after{0};
    pool.run(5, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 5);
  }
}

TEST(WorkerPool, DestructorStopsSleepingWorkers) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    {
      WorkerPool idle(threads);
      letWorkersSleep();
    }
    {
      WorkerPool used(threads);
      std::atomic<int> ran{0};
      used.run(32, [&](std::size_t) { ran.fetch_add(1); });
      EXPECT_EQ(ran.load(), 32);
      letWorkersSleep();
    }
  }
}

}  // namespace
}  // namespace sops::core
