#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/log.hpp"

namespace jupiter {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  {
    std::unique_lock lk(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
  }
  task();
  {
    std::lock_guard lk(mu_);
    --in_flight_;
  }
  cv_done_.notify_all();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_work_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
    }
    cv_done_.notify_all();
  }
}

void ThreadPool::wait() {
  // Help drain, then wait for stragglers running on workers.
  while (run_one()) {
  }
  std::unique_lock lk(mu_);
  cv_done_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

namespace {

/// Shared state of one parallel_for call.  Indices are claimed via an atomic
/// cursor, so the batch is self-contained: helpers submitted to the pool and
/// the calling thread all drain the same cursor, and completion is tracked
/// per batch rather than through the pool's global in-flight count.  That
/// makes parallel_for safe to call from inside a pool task (a nested call
/// never blocks on pool state that includes its own caller).  Helpers log
/// under the caller's context, which outlives the batch's work: the caller
/// waits for every index to finish.
struct Batch {
  std::function<void(std::size_t)> fn;
  std::size_t n = 0;
  const LogContext* log = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by mu
  std::mutex mu;
  std::condition_variable cv;
};

void drain_batch(const std::shared_ptr<Batch>& b) {
  LogContextScope log_scope(b->log);
  std::size_t completed = 0;
  for (;;) {
    std::size_t i = b->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b->n) break;
    b->fn(i);
    ++completed;
  }
  if (completed > 0) {
    std::lock_guard lk(b->mu);
    b->done += completed;
    if (b->done == b->n) b->cv.notify_all();
  }
}

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  auto b = std::make_shared<Batch>();
  b->fn = fn;
  b->n = n;
  b->log = log_context();
  // The caller participates, so n - 1 helpers suffice; helpers that arrive
  // after the cursor is exhausted exit immediately.
  std::size_t helpers = std::min(pool.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([b] { drain_batch(b); });
  }
  drain_batch(b);
  std::unique_lock lk(b->mu);
  b->cv.wait(lk, [&] { return b->done == b->n; });
}

ThreadPool& global_pool() {
  // Work items own their state; batches are claim-cursor ordered.
  // detlint: allow(par-shared) — the process-wide pool itself, not a cache
  static ThreadPool pool;
  return pool;
}

}  // namespace jupiter
