// Thread pool and ensemble runner tests: correctness under concurrency,
// exception propagation, and phase timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "par/ensemble_runner.h"
#include "par/thread_pool.h"

using namespace wfire::par;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](int i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](int i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ManyConcurrentIncrements) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(1000, [&](int i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, SubmitFutureCarriesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

// The exception contract that makes parallel_for safe to call with a lambda
// on the caller's stack: every task — started or still queued — runs (or is
// executed to completion) before the first exception is rethrown. An early
// exit here is a use-after-free: queued tasks hold references into the
// caller's frame.
TEST(ThreadPool, ParallelForWaitsForAllTasksOnException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](int i) {
                          if (i == 0) throw std::runtime_error("first");
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // When parallel_for returns, every non-throwing task has finished.
  EXPECT_EQ(completed.load(), 7);
}

namespace {

// Occupies a pool worker until `gate` opens, and lets the test wait until
// the task has actually been dequeued (so later submissions really queue).
struct Blocker {
  std::promise<void> gate;
  std::atomic<bool> started{false};
  std::future<void> fut;

  explicit Blocker(ThreadPool& pool) {
    std::shared_future<void> opened = gate.get_future().share();
    fut = pool.submit([this, opened] {
      started.store(true);
      opened.wait();
    });
    while (!started.load()) std::this_thread::yield();
  }
  void release() {
    gate.set_value();
    fut.get();
  }
};

}  // namespace

TEST(ThreadPool, CancelPendingFailsFuturesCleanly) {
  ThreadPool pool(1);
  Blocker blocker(pool);
  // With the lone worker blocked, these stay queued.
  auto f1 = pool.submit([] { return 1; });
  auto f2 = pool.submit([] { return 2; });
  EXPECT_EQ(pool.cancel_pending(), 2u);
  blocker.release();
  EXPECT_THROW(f1.get(), std::future_error);
  EXPECT_THROW(f2.get(), std::future_error);
  // The pool stays usable after a cancellation.
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, HigherPriorityOvertakesQueuedWork) {
  ThreadPool pool(1);
  Blocker blocker(pool);
  std::vector<int> order;
  std::mutex mu;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  };
  auto lo = pool.submit(Priority::kLow, [&] { record(2); });
  auto mid = pool.submit(Priority::kNormal, [&] { record(1); });
  auto hi = pool.submit(Priority::kHigh, [&] { record(0); });
  blocker.release();
  hi.get();
  mid.get();
  lo.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPool, ShutdownDrainRunsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    Blocker blocker(pool);
    for (int i = 0; i < 4; ++i) pool.submit([&] { ran.fetch_add(1); });
    blocker.gate.set_value();
    pool.shutdown(/*drain=*/true);
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, ShutdownDiscardDropsQueuedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  Blocker blocker(pool);
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 4; ++i)
    queued.push_back(pool.submit([&] { ran.fetch_add(1); }));
  // shutdown(discard) empties the queue before joining; only release the
  // blocked worker once the discard is visible, so nothing queued can slip
  // through in the gap.
  std::thread closer([&] { pool.shutdown(/*drain=*/false); });
  while (pool.pending() != 0) std::this_thread::yield();
  blocker.gate.set_value();
  closer.join();
  EXPECT_EQ(ran.load(), 0);
  for (auto& f : queued) EXPECT_THROW(f.get(), std::future_error);
  blocker.fut.get();  // the running task was never abandoned
}

TEST(ThreadPool, PostKeepsFifoWithinAPriorityAndHighOvertakes) {
  ThreadPool pool(1);
  Blocker blocker(pool);
  std::vector<int> order;
  std::mutex mu;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  };
  for (int i = 10; i < 15; ++i)
    pool.post(Priority::kNormal, [&record, i] { record(i); });
  pool.post(Priority::kHigh, [&] { record(0); });
  pool.post(Priority::kHigh, [&] { record(1); });
  blocker.release();
  pool.shutdown(/*drain=*/true);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12, 13, 14}));
}

TEST(ThreadPool, CancelPendingDiscardsPostedTasks) {
  ThreadPool pool(1);
  Blocker blocker(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i)
    pool.post(Priority::kNormal, [&] { ran.fetch_add(1); });
  pool.post(Priority::kLow, [&] { ran.fetch_add(1); });
  EXPECT_EQ(pool.pending(), 4u);
  EXPECT_EQ(pool.cancel_pending(), 4u);
  EXPECT_EQ(pool.pending(), 0u);
  blocker.release();
  pool.shutdown(/*drain=*/true);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ShutdownDrainRunsPostedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  Blocker blocker(pool);
  for (int i = 0; i < 5; ++i)
    pool.post(Priority::kNormal, [&] { ran.fetch_add(1); });
  blocker.gate.set_value();
  pool.shutdown(/*drain=*/true);
  EXPECT_EQ(ran.load(), 5);
  EXPECT_THROW(pool.post(Priority::kNormal, [] {}), std::runtime_error);
  blocker.fut.get();
}

// The rings only grow: a backlog past the initial capacity must reallocate
// without losing or reordering a queued task.
TEST(ThreadPool, BacklogBeyondInitialRingCapacityRunsInOrder) {
  constexpr int kTasks =
      static_cast<int>(3 * ThreadPool::kInitialQueueCapacity + 5);
  ThreadPool pool(1);
  std::vector<int> order;
  for (int round = 0; round < 2; ++round) {  // the second reuses the ring
    SCOPED_TRACE(round);
    order.clear();
    Blocker blocker(pool);
    for (int i = 0; i < kTasks; ++i) {
      // Interleave a future-carrying submit to share the same ring.
      if (i % 7 == 3)
        (void)pool.submit([&order, i] { order.push_back(i); });
      else
        pool.post(Priority::kNormal, [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(pool.pending(), static_cast<std::size_t>(kTasks));
    blocker.release();
    pool.submit([] {}).get();  // queued last, so everything else ran
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) ASSERT_EQ(order[i], i);
  }
}

// Stress for the TSan job: concurrent submitters racing a throwing
// parallel_for and a cancel — the shutdown/exception paths the serial tests
// above exercise one at a time.
TEST(ThreadPool, ConcurrentSubmitAndThrowingParallelForStress) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<long> sum{0};
    std::thread submitter([&] {
      for (int i = 0; i < 50; ++i) {
        try {
          pool.submit(i % 2 ? Priority::kHigh : Priority::kLow,
                      [&sum, i] { sum.fetch_add(i); });
        } catch (const std::runtime_error&) {
          break;  // pool already stopping
        }
      }
    });
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](int i) {
                                     if (i % 17 == 3)
                                       throw std::runtime_error("boom");
                                     sum.fetch_add(1);
                                   }),
                 std::runtime_error);
    pool.cancel_pending();
    submitter.join();
    pool.shutdown(/*drain=*/true);
  }
}

TEST(EnsembleRunner, RecordsPhaseTimings) {
  EnsembleRunner runner(2);
  std::atomic<int> count{0};
  runner.run_phase("advance", 10, [&](int) { count.fetch_add(1); });
  runner.run_serial_phase("enkf", [&] { count.fetch_add(100); });
  EXPECT_EQ(count.load(), 110);
  ASSERT_EQ(runner.timings().size(), 2u);
  EXPECT_EQ(runner.timings()[0].name, "advance");
  EXPECT_EQ(runner.timings()[1].name, "enkf");
  EXPECT_GE(runner.total_seconds(), 0.0);
  runner.clear_timings();
  EXPECT_TRUE(runner.timings().empty());
}

TEST(EnsembleRunner, MemberTasksSeeTheirIndex) {
  EnsembleRunner runner(3);
  std::vector<int> seen(25, -1);
  runner.run_phase("advance", 25, [&](int k) { seen[k] = k; });
  for (int k = 0; k < 25; ++k) EXPECT_EQ(seen[k], k);
}
