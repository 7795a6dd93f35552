#include "par/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wfire::par {

void ThreadPool::Queue::push(std::function<void()> f) {
  if (count == slots.size()) {
    // Full: move the live tasks, oldest first, into a ring twice the size.
    std::vector<std::function<void()>> grown(
        std::max(kInitialQueueCapacity, 2 * slots.size()));
    for (std::size_t i = 0; i < count; ++i)
      grown[i] = std::move(slots[(head + i) % slots.size()]);
    slots = std::move(grown);
    head = 0;
  }
  slots[(head + count) % slots.size()] = std::move(f);
  ++count;
}

std::function<void()> ThreadPool::Queue::pop() {
  std::function<void()> f = std::move(slots[head]);
  slots[head] = nullptr;
  head = (head + 1) % slots.size();
  --count;
  return f;
}

std::size_t ThreadPool::Queue::clear() {
  const std::size_t dropped = count;
  while (count > 0) pop();
  head = 0;
  return dropped;
}

ThreadPool::ThreadPool(int n) {
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 2;
  for (Queue& q : queues_) q.slots.resize(kInitialQueueCapacity);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(/*drain=*/true); }

void ThreadPool::post(Priority p, std::function<void()> f) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
    queues_[static_cast<std::size_t>(p)].push(std::move(f));
  }
  cv_.notify_one();
}

void ThreadPool::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (!drain) discard_queues_locked();
    if (joined_) return;
    joined_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::discard_queues_locked() {
  std::size_t discarded = 0;
  // Destroying a submitted task's closure destroys its packaged_task; the
  // outstanding future observes broken_promise, a clean cancellation signal
  // that cannot be confused with a task-thrown exception.
  for (Queue& q : queues_) discarded += q.clear();
  return discarded;
}

std::size_t ThreadPool::cancel_pending() {
  std::lock_guard<std::mutex> lock(mutex_);
  return discard_queues_locked();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Queue& q : queues_) n += q.count;
  return n;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        if (stopping_) return true;
        for (const Queue& q : queues_)
          if (q.count > 0) return true;
        return false;
      });
      Queue* next = nullptr;
      for (Queue& q : queues_)
        if (q.count > 0) {
          next = &q;
          break;
        }
      if (next == nullptr) {
        if (stopping_) return;
        continue;  // spurious wakeup with empty queues
      }
      task = next->pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    futures.push_back(submit([&fn, i] { fn(i); }));
  // Every future is drained before the first exception propagates: the tasks
  // capture fn (and whatever the caller's lambda references) by reference,
  // so returning while siblings are still queued or running would leave them
  // with dangling references — the shutdown/exception-hygiene bug class this
  // loop exists to prevent.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace wfire::par
