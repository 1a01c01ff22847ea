// Fixed-size thread pool with deterministic fork-join loops.
//
// Design goals, in order:
//  1. Determinism -- parallel_for hands out index *ranges*, so a kernel
//     that keeps each output element's accumulation order internal to
//     one range produces bit-identical results at any thread count.
//  2. Simplicity -- no work stealing, no lock-free queues: one mutex,
//     two condition variables, a chunk counter.  TSan-clean by
//     construction.
//  3. Graceful nesting -- a parallel_for issued from inside a pool task
//     runs inline on the calling thread (same results, no deadlock), so
//     a loop may call kernels that are themselves parallel.
//
// A pool of size 1 never spawns threads and runs every loop inline --
// this is the "threads = 1 means bit-identical legacy behaviour" mode.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tafloc {

class MetricRegistry;

class ThreadPool {
 public:
  /// A pool of `threads` >= 1 concurrency: `threads - 1` workers are
  /// spawned and the submitting thread participates in every loop.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Concurrency level (worker threads + the submitting thread).
  std::size_t size() const noexcept { return threads_; }

  /// Run body(chunk_begin, chunk_end) over a partition of [begin, end)
  /// into contiguous ranges of at least `grain` indices.  Blocks until
  /// every range is done; rethrows the first exception a range threw.
  /// Ranges are disjoint, so bodies may write to per-index outputs
  /// without synchronization.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// True when the calling thread is currently executing a pool task
  /// (loops issued now would run inline).
  static bool in_pool_task() noexcept;

  /// The process-global pool used by the linalg / recon / loc kernels.
  /// Created on first use with the automatic thread count (TAFLOC_THREADS
  /// environment variable, else hardware_concurrency); resized by
  /// set_global_threads() in exec_config.h.
  static ThreadPool& global();

  /// Run task(0) ... task(count - 1), distributed over the pool, in
  /// unspecified order; blocks until all are done.  Building block for
  /// parallel_for, exposed for irregular workloads.
  void run_chunks(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Point-in-time execution statistics.  Kept as relaxed atomics the
  /// pool updates once per batch (two adds + one high-water CAS), so
  /// the counts are exact and the hot loops pay nothing per chunk.
  struct Stats {
    std::uint64_t batches = 0;           ///< run_chunks() calls (inline ones included).
    std::uint64_t chunks_run = 0;        ///< total chunks dispatched over all batches.
    std::uint64_t max_batch_chunks = 0;  ///< deepest chunk queue a batch ever posted.
  };
  Stats stats() const noexcept;

  /// Copy stats() into `registry` as exec.pool.* gauges.  Telemetry is
  /// per-TafLocSystem while the pool is process-wide, so systems sample
  /// the shared pool at snapshot time instead of the pool pushing into
  /// any registry.
  void sample_into(MetricRegistry& registry) const;

 private:
  void worker_loop();
  /// Pull and run chunks of the current batch until none remain.
  /// `lock` must hold mu_; temporarily released around each task.
  void drain_batch(std::unique_lock<std::mutex>& lock);

  const std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  ///< serializes run_chunks() callers.

  std::mutex mu_;  ///< guards everything below.
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;  ///< bumped per batch so workers never re-enter an old one.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t chunk_count_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t finished_ = 0;
  std::exception_ptr error_;

  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_chunks_run_{0};
  std::atomic<std::uint64_t> stat_max_batch_chunks_{0};
};

}  // namespace tafloc
