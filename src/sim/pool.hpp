// Fixed-size thread pool and deterministic parallel-for used by the
// experiment drivers (run_replicated, sweep_loads, bench grids).
//
// Determinism contract: parallel_for_n(n, jobs, fn) calls fn(i) exactly
// once for every i in [0, n).  Each fn(i) must be a pure function of i
// (all mutable state constructed inside the call), writing its result to
// an index-ordered slot owned by the caller.  Under that contract the
// slot contents are bit-identical for every jobs value, because which
// thread runs a point can never influence what the point computes.
// jobs <= 1 (or n <= 1) runs inline on the calling thread in index
// order — the exact serial code path, no pool spun up.
#pragma once

#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include <condition_variable>

namespace itb {

/// Most workers a run may ask for: each is a thread with its own
/// simulation workspace, and table builds size their blocks as jobs * 4.
inline constexpr int kMaxJobs = 1024;

/// How many workers to use by default: ITB_BENCH_JOBS when set to an
/// integer in [1, kMaxJobs], otherwise std::thread::hardware_concurrency()
/// capped at kMaxJobs (never less than 1).
[[nodiscard]] int default_jobs();

/// A small fixed-size worker pool.  Jobs are run in submission order by
/// whichever worker frees up first; wait_idle() blocks until the queue is
/// drained and every worker is idle.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  void submit(std::function<void()> job);
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  int busy_ = 0;
  bool stopping_ = false;
};

namespace detail {
/// Runs fn(0..n-1) on a pool of `threads` workers; rethrows the first
/// exception any job threw after all jobs finish.  Re-entrant: a call made
/// from inside a pooled job runs inline on that worker in index order
/// (fanning out again would deadlock wait_idle or recruit workers whose
/// thread_local workspaces are mid-point).
void pooled_for(int n, int threads, const std::function<void(int)>& fn);
}  // namespace detail

/// Deterministic parallel for over [0, n): see the contract at the top of
/// this header.  `jobs` is clamped to [1, n].
template <typename Fn>
void parallel_for_n(int n, int jobs, Fn&& fn) {
  if (n <= 0) return;
  if (jobs <= 1 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::pooled_for(n, jobs < n ? jobs : n,
                     std::function<void(int)>(std::forward<Fn>(fn)));
}

/// Index-ordered map: out[i] = fn(i), computed across `jobs` workers.
/// R must be default-constructible (slot vector is pre-sized).
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> parallel_map(int n, int jobs, Fn&& fn) {
  std::vector<R> out(static_cast<std::size_t>(n > 0 ? n : 0));
  parallel_for_n(n, jobs, [&out, &fn](int i) {
    out[static_cast<std::size_t>(i)] = fn(i);
  });
  return out;
}

}  // namespace itb
