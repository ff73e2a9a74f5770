// Fixed-size thread pool with a blocking parallel_for — the project's one
// thread runtime. It runs independent RL trials concurrently when
// averaging Fig. 5 results (per-trial determinism, one Rng per trial,
// regardless of scheduling order) and AsyncQServer's session workers: a
// standalone server's own pool, or the one pool RouterQServer shares
// across every replica of a fleet. A server hands each drain back as at
// most size() submitted lane tasks that claim sessions from one shared
// list with an atomic index — parallel_for's claiming, without the
// caller waiting — so the queue carries one task per lane, not one per
// session. The linalg kernels are single-threaded.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace oselm::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 -> hardware_concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future resolves when it finishes.
  std::future<void> submit(std::function<void()> task);

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// iterations complete. A throwing iteration stops further iterations
  /// from being claimed; every lane is drained before the first exception
  /// is rethrown, so no worker outlives the call frame it captured.
  ///
  /// Contract (Debug-checked): NEVER call from one of this pool's own
  /// worker lanes. The caller blocks on futures its own lane would have
  /// to execute — a size-1 pool deadlocks outright and larger pools
  /// deadlock whenever every other lane is busy. Nested parallelism must
  /// use a different pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// True when the calling thread is one of THIS pool's worker lanes
  /// (always false in Release builds, where the tracking is compiled
  /// out). The re-entrancy contract and AsyncQServer::stop()'s check
  /// read it; not meant for scheduling decisions.
  [[nodiscard]] bool on_worker_thread() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace oselm::util
