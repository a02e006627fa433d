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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      busy_.store(static_cast<unsigned>(workers_.size()),
                  std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();
    drain();
    while (busy_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// Yield-spins a worker makes for the next phase before sleeping.
  static constexpr int kSpins = 64;

  void workerLoop() {
    std::uint64_t seen = 0;
    while (true) {
      for (int spin = 0; spin < kSpins; ++spin) {
        if (generation_.load(std::memory_order_acquire) != seen) break;
        std::this_thread::yield();
      }
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return stop_ || generation_.load(std::memory_order_relaxed) != seen;
        });
        if (stop_) return;
        seen = generation_.load(std::memory_order_relaxed);
      }
      drain();
      busy_.fetch_sub(1, std::memory_order_release);
    }
  }

  void drain() {
    while (true) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) return;
      try {
        (*fn_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
        next_.store(count_, std::memory_order_relaxed);
        return;
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<unsigned> busy_{0};
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace sops::core

#endif  // SOPS_CORE_WORKER_POOL_HPP
