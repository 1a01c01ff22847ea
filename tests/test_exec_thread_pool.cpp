#include "tafloc/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "tafloc/exec/exec_config.h"

namespace tafloc {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> one(1, 0);
  pool.parallel_for(0, 1, 100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) one[i] = 1;
  });
  EXPECT_EQ(one[0], 1);
}

TEST(ThreadPool, SizeOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 10, 1, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, NestedLoopsRunInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 8);
  pool.parallel_for(0, 64, 1, [&](std::size_t b0, std::size_t b1) {
    EXPECT_TRUE(ThreadPool::in_pool_task());
    for (std::size_t i = b0; i < b1; ++i) {
      pool.parallel_for(0, 8, 1, [&](std::size_t j0, std::size_t j1) {
        for (std::size_t j = j0; j < j1; ++j) hits[i * 8 + j].fetch_add(1);
      });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  EXPECT_FALSE(ThreadPool::in_pool_task());
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [&](std::size_t b, std::size_t) {
                                   if (b >= 50) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, GlobalPoolResizes) {
  const std::size_t before = global_thread_count();
  set_global_threads(3);
  EXPECT_EQ(global_thread_count(), 3u);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  set_global_threads(1);
  EXPECT_EQ(global_thread_count(), 1u);
  set_global_threads(before);
}

TEST(ExecConfig, ExplicitThreadCountWins) {
  EXPECT_EQ(resolve_thread_count(5), 5u);
}

TEST(ExecConfig, AutomaticCountIsAtLeastOne) {
  EXPECT_GE(resolve_thread_count(0), 1u);
}

}  // namespace
}  // namespace tafloc
