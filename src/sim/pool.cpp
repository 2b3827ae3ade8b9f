#include "sim/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

namespace itb {

int default_jobs() {
  if (const char* env = std::getenv("ITB_BENCH_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= kMaxJobs) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(std::min<unsigned>(hw, kMaxJobs)) : 1;
}

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(job));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop();
      ++busy_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
      if (queue_.empty() && busy_ == 0) idle_.notify_all();
    }
  }
}

namespace detail {

namespace {

/// Persistent worker pools, one per requested size, kept alive for the
/// process (joined at static destruction).  Keeping workers alive is what
/// lets their thread_local SimWorkspaces — and all the simulation capacity
/// those hold — survive across driver calls; tearing a pool down per call
/// would throw that warmed state away and reconstruct it every time.
ThreadPool& shared_pool(int threads) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<ThreadPool>> pools;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& p = pools[threads];
  if (!p) p = std::make_unique<ThreadPool>(threads);
  return *p;
}

/// True while the current thread is inside a pooled_for job.  Nested
/// pooled_for calls run inline on the caller: a worker blocking in
/// wait_idle() on its own pool would deadlock, and even on a *different*
/// pool the nested fan-out could recruit workers whose thread_local
/// workspaces are mid-point.  First hit in practice by a cold
/// Testbed::routes() build triggered from inside a parallel driver.
thread_local bool in_pooled_job = false;

}  // namespace

void pooled_for(int n, int threads, const std::function<void(int)>& fn) {
  if (in_pooled_job) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = shared_pool(threads);
  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  // One self-scheduling job per worker: each pulls the next index until
  // the range is exhausted, so imbalanced points don't idle a worker.
  for (int w = 0; w < threads; ++w) {
    pool.submit([&] {
      in_pooled_job = true;
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
      in_pooled_job = false;
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail
}  // namespace itb
