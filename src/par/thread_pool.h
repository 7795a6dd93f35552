// Fixed-size thread pool. The paper's parallel structure (Fig. 2) assigns
// ensemble members to subsets of processors; at laptop scale the same
// decomposition is expressed as member tasks on a pool. Stencil-level
// parallelism inside each member uses OpenMP instead (see DESIGN.md).
//
// The pool is also the execution substrate of the scenario server
// (serve/scenario_server): long-lived, with three priority classes so
// interactive work overtakes bulk work, cooperative cancellation of not-yet-
// started tasks, and an explicit two-mode shutdown (drain vs discard).
// Every entry point (post, submit, parallel_for) feeds the same per-priority
// FIFO rings. A ring only grows, so once it has held its deepest backlog,
// post() of a small trivially copyable closure allocates nothing — the
// server's steady-state serving path relies on that.
#pragma once

#include <array>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wfire::par {

// Scheduling class of a submitted task. Workers always pop the highest
// nonempty class, so kHigh tasks overtake queued kNormal/kLow work (they do
// not preempt tasks already running).
enum class Priority : int { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kPriorityLevels = 3;

class ThreadPool {
 public:
  // n <= 0 selects hardware_concurrency().
  explicit ThreadPool(int n = 0);
  ~ThreadPool();  // == shutdown(/*drain=*/true)

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  // Slots each priority ring starts with; a ring doubles when a push finds
  // it full.
  static constexpr std::size_t kInitialQueueCapacity = 64;

  // Enqueues a fire-and-forget task: no future, so nothing is allocated
  // beyond what std::function needs for f (nothing, for a closure of up to
  // two pointers) and ring growth. An exception escaping f terminates the
  // program; callers catch their own. Throws after shutdown.
  void post(Priority p, std::function<void()> f);

  // Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    return submit(Priority::kNormal, std::forward<F>(f));
  }

  template <typename F>
  auto submit(Priority p, F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    post(p, [task] { (*task)(); });
    return fut;
  }

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // Waits for *every* task — started or queued — before returning, then
  // rethrows the first exception encountered (tasks reference fn and the
  // caller's frame, so an early exit would leave live tasks with dangling
  // references).
  void parallel_for(int n, const std::function<void(int)>& fn);

  // Discards every queued-but-unstarted task, posted or submitted; the
  // futures of submitted ones fail with std::future_error (broken_promise).
  // Running tasks are unaffected and the pool stays usable. Returns the
  // number of tasks discarded.
  std::size_t cancel_pending();

  // Stops accepting work and joins the workers. drain=true (the destructor's
  // mode) runs everything already queued first; drain=false discards the
  // queue as cancel_pending() does. Idempotent; concurrent submits that lose
  // the race throw.
  void shutdown(bool drain = true);

  // Queued-but-unstarted task count across all priority classes (snapshot).
  [[nodiscard]] std::size_t pending() const;

 private:
  // Grow-only FIFO ring of tasks; slots are reused, never freed.
  struct Queue {
    std::vector<std::function<void()>> slots;
    std::size_t head = 0, count = 0;

    void push(std::function<void()> f);
    std::function<void()> pop();
    std::size_t clear();  // returns the number of tasks dropped
  };

  void worker_loop();
  std::size_t discard_queues_locked();

  std::vector<std::thread> workers_;
  std::array<Queue, kPriorityLevels> queues_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace wfire::par
