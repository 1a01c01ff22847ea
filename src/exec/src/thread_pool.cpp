#include "tafloc/exec/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "tafloc/exec/exec_config.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/util/check.h"

namespace tafloc {

namespace {

/// Set while the current thread executes a pool task; loops issued from
/// such a context run inline to avoid self-deadlock on the batch state.
thread_local bool t_in_pool_task = false;

struct PoolTaskScope {
  PoolTaskScope() { t_in_pool_task = true; }
  ~PoolTaskScope() { t_in_pool_task = false; }
};

std::size_t clamp_threads(std::size_t n) {
  constexpr std::size_t kMax = 256;
  if (n < 1) return 1;
  return n > kMax ? kMax : n;
}

/// Global pool storage; guarded so set_global_threads can swap it.
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: intentionally leaked-on-exit singleton slot

}  // namespace

bool ThreadPool::in_pool_task() noexcept { return t_in_pool_task; }

ThreadPool::ThreadPool(std::size_t threads) : threads_(clamp_threads(threads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    drain_batch(lock);
  }
}

void ThreadPool::drain_batch(std::unique_lock<std::mutex>& lock) {
  while (next_chunk_ < chunk_count_) {
    const std::size_t index = next_chunk_++;
    lock.unlock();
    std::exception_ptr err;
    {
      PoolTaskScope scope;
      try {
        (*task_)(index);
      } catch (...) {
        err = std::current_exception();
      }
    }
    lock.lock();
    if (err && !error_) error_ = err;
    if (++finished_ == chunk_count_) cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t count, const std::function<void(std::size_t)>& task) {
  TAFLOC_CHECK_ARG(static_cast<bool>(task), "run_chunks needs a task");
  if (count == 0) return;
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  stat_chunks_run_.fetch_add(count, std::memory_order_relaxed);
  std::uint64_t seen_max = stat_max_batch_chunks_.load(std::memory_order_relaxed);
  while (seen_max < count && !stat_max_batch_chunks_.compare_exchange_weak(
                                 seen_max, count, std::memory_order_relaxed)) {
  }
  // Sequential modes: a size-1 pool, a single chunk, or a call from
  // inside a pool task (nested loops run inline -- same results, since
  // every kernel's output is range-partitioned).
  if (threads_ == 1 || count == 1 || t_in_pool_task) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  task_ = &task;
  chunk_count_ = count;
  next_chunk_ = 0;
  finished_ = 0;
  error_ = nullptr;
  ++generation_;
  cv_work_.notify_all();
  drain_batch(lock);  // the submitting thread is one of the `size()` lanes
  cv_done_.wait(lock, [&] { return finished_ == chunk_count_; });
  task_ = nullptr;
  const std::exception_ptr err = error_;
  error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  // Enough chunks to balance load, never so many that per-chunk
  // overhead dominates; chunk boundaries only affect scheduling, not
  // results (ranges are disjoint and order-free by contract).
  std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t max_chunks = threads_ * 4;
  if (chunks > max_chunks) chunks = max_chunks;
  const std::size_t per = (n + chunks - 1) / chunks;
  run_chunks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * per;
    if (lo >= end) return;
    const std::size_t hi = lo + std::min(per, end - lo);
    body(lo, hi);
  });
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  return {stat_batches_.load(std::memory_order_relaxed),
          stat_chunks_run_.load(std::memory_order_relaxed),
          stat_max_batch_chunks_.load(std::memory_order_relaxed)};
}

void ThreadPool::sample_into(MetricRegistry& registry) const {
  if (!registry.enabled()) return;
  const Stats s = stats();
  registry.gauge("exec.pool.threads").set(static_cast<double>(size()));
  registry.gauge("exec.pool.batches").set(static_cast<double>(s.batches));
  registry.gauge("exec.pool.chunks_run").set(static_cast<double>(s.chunks_run));
  registry.gauge("exec.pool.max_batch_chunks").set(static_cast<double>(s.max_batch_chunks));
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(resolve_thread_count());
  return *g_pool;
}

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return clamp_threads(requested);
  if (const char* env = std::getenv("TAFLOC_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) return clamp_threads(parsed);
  }
  return clamp_threads(std::thread::hardware_concurrency());
}

void set_global_threads(std::size_t threads) {
  const std::size_t resolved = resolve_thread_count(threads);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->size() == resolved) return;
  g_pool = std::make_unique<ThreadPool>(resolved);
}

std::size_t global_thread_count() { return ThreadPool::global().size(); }

}  // namespace tafloc
