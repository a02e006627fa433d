#include "core/ensemble.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace sops::core {

void parallelForIndex(std::size_t count, unsigned threads,
                      const CancelToken* cancel,
                      const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  SOPS_REQUIRE(fn != nullptr, "parallelForIndex: fn required");
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, count));

  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr firstError;

  const auto worker = [&] {
    while (true) {
      // Cancellation skips every index not yet claimed; fn invocations
      // already in flight run to completion (they poll the token
      // themselves if they want finer granularity).
      if (isCancelled(cancel)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
        // Drain remaining indices so sibling workers exit promptly.
        next.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace sops::core
