#ifndef SOPS_CORE_WORKER_POOL_HPP
#define SOPS_CORE_WORKER_POOL_HPP

/// \file worker_pool.hpp
/// Persistent worker threads for fork/join phases that are short next to
/// a thread's start-up.  The sharded chain runner runs three parallel
/// phases per epoch of ~0.1–1 ms each; parallelForIndex creates and joins
/// its threads per call, ~75 µs a phase on a 4-vCPU host, which this pool
/// replaces by a wake-up.  Workers spin briefly (yielding) for the next
/// phase, then sleep on a condition variable, so an idle pool — between
/// the runner's calls — costs no CPU.
///
/// A phase joins on its tasks, not on its workers: run() returns once
/// every index has finished (or been skipped after a throw), and a worker
/// that wakes after every index was claimed finds the phase exhausted and
/// goes back to sleep.  Indices are claimed by compare-and-swap on one
/// word packing (generation, next index), so a claim made against a phase
/// that has ended fails, and a late worker never runs a task of, nor reads
/// the function of, a phase it did not claim in.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace sops::core {

class WorkerPool {
 public:
  /// A pool for `threads`-way phases: threads − 1 workers, the caller of
  /// run() being the last.
  explicit WorkerPool(unsigned threads) {
    for (unsigned t = 1; t < threads; ++t) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Calls fn(i) for every i in [0, count), indices claimed in order by
  /// whichever thread is free, and returns when all calls have finished.
  /// The first exception thrown by any call is rethrown here (indices not
  /// yet claimed are then skipped).
  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    SOPS_REQUIRE(count <= kIndexMask, "WorkerPool: too many tasks");
    if (count == 0) return;
    fn_ = &fn;
    error_ = nullptr;
    finished_.store(0, std::memory_order_relaxed);
    const std::uint64_t generation =
        (claim_.load(std::memory_order_relaxed) >> 32) + 1;
    // The count first, then the claim word that opens the phase: a claim
    // that sees this generation also sees its count and function.
    phase_.store((generation << 32) | count, std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      claim_.store(generation << 32, std::memory_order_release);
    }
    wake_.notify_all();
    drain();
    while (finished_.load(std::memory_order_acquire) != count) {
      std::this_thread::yield();
    }
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// Yield-spins a worker makes for the next phase before sleeping.
  static constexpr int kSpins = 64;
  /// The low half of the claim and phase words: the next index, the count.
  static constexpr std::uint64_t kIndexMask = 0xFFFFFFFFu;

  [[nodiscard]] std::uint64_t generation() const noexcept {
    return claim_.load(std::memory_order_acquire) >> 32;
  }

  void workerLoop() {
    std::uint64_t seen = 0;
    while (true) {
      for (int spin = 0; spin < kSpins && generation() == seen; ++spin) {
        std::this_thread::yield();
      }
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation() != seen; });
        if (stop_) return;
      }
      seen = generation();
      drain();
    }
  }

  /// Claims and runs indices until the current phase has none left.
  void drain() {
    while (true) {
      const std::uint64_t phase = phase_.load(std::memory_order_acquire);
      std::uint64_t claim = claim_.load(std::memory_order_acquire);
      // A phase opening between the two loads: read both again.
      if ((claim >> 32) != (phase >> 32)) continue;
      if ((claim & kIndexMask) >= (phase & kIndexMask)) return;
      if (!claim_.compare_exchange_weak(claim, claim + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        continue;
      }
      std::uint64_t done = 1;
      try {
        (*fn_)(claim & kIndexMask);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (!error_) error_ = std::current_exception();
        }
        // Skip the unclaimed indices: they count as finished.
        const std::uint64_t count = phase & kIndexMask;
        const std::uint64_t claimed =
            claim_.exchange((phase & ~kIndexMask) | count,
                            std::memory_order_acq_rel) &
            kIndexMask;
        done += count - claimed;
      }
      finished_.fetch_add(done, std::memory_order_release);
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  /// (generation, next index): the claim word of the current phase.
  std::atomic<std::uint64_t> claim_{0};
  /// (generation, count) of the current phase.
  std::atomic<std::uint64_t> phase_{0};
  /// Indices of the current phase finished or skipped.
  std::atomic<std::uint64_t> finished_{0};
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace sops::core

#endif  // SOPS_CORE_WORKER_POOL_HPP
