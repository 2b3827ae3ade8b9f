#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace itb {

namespace shard {
thread_local std::int32_t tl_lane = -1;
thread_local Simulator* tl_sim = nullptr;
}  // namespace shard

ParallelEngine::~ParallelEngine() { shutdown_workers(); }

void ParallelEngine::shutdown_workers() {
  if (lanes_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(epoch_mu_);
    shutdown_ = true;
  }
  epoch_cv_.notify_all();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  lanes_.clear();
  mailboxes_.clear();
  shutdown_ = false;
  epoch_ = 0;
}

void ParallelEngine::configure(PartitionPlan plan) {
  const int k = plan.shards;
  if (k != static_cast<int>(lanes_.size())) {
    shutdown_workers();
    lanes_.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) lanes_.push_back(std::make_unique<Lane>());
    mailboxes_.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
    for (int i = 0; i < k * k; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_sense_.store(0, std::memory_order_relaxed);
    for (int i = 0; i < k; ++i) {
      lanes_[static_cast<std::size_t>(i)]->thread =
          std::thread([this, i] { worker_main(i); });
    }
  }
  plan_ = std::move(plan);
  for (int i = 0; i < k; ++i) {
    Lane& lane = *lanes_[static_cast<std::size_t>(i)];
    lane.sim.reset();
    lane.sim.enable_shard_keys(i);
    lane.drain_buf.clear();
    lane.posted = 0;
    lane.posted_credits = 0;
    lane.barrier_wall_ns = 0;
    lane.win_ring.clear();
    lane.win_ring.shrink_to_fit();
    lane.win_recorded = 0;
  }
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lk(mb->mu);
    mb->pending.clear();
    mb->depth_peak = 0;
  }
  win_stats_cap_ = 0;
  synced_ = 0;
  windows_executed_ = 0;
  events_prev_ = 0;
  first_error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
}

void ParallelEngine::bind(PodHandler* handler, ShardHooks* hooks) {
  hooks_ = hooks;
  for (auto& lane : lanes_) lane->sim.set_pod_handler(handler);
}

void ParallelEngine::post(int to_lane, const BoundaryMsg& m) {
  assert(shard::tl_lane >= 0 && "post() is for lane workers");
  const std::size_t idx =
      static_cast<std::size_t>(shard::tl_lane) * lanes_.size() +
      static_cast<std::size_t>(to_lane);
  Mailbox& mb = *mailboxes_[idx];
  {
    std::lock_guard<std::mutex> lk(mb.mu);
    mb.pending.push_back(m);
    if (mb.pending.size() > mb.depth_peak) mb.depth_peak = mb.pending.size();
  }
  Lane& from = *lanes_[static_cast<std::size_t>(shard::tl_lane)];
  ++from.posted;
  if (m.kind == EventKind::kStopArrived || m.kind == EventKind::kGoArrived) {
    ++from.posted_credits;
  }
}

std::uint64_t ParallelEngine::barrier_wait(Lane& lane) {
  // Returns (and accumulates) the wall time this lane idled: the releasing
  // lane — the slowest arrival — measures ~0, so the sum over lanes is the
  // pure synchronization overhead the health fields surface.
  const auto t0 = std::chrono::steady_clock::now();
  const int n = static_cast<int>(lanes_.size());
  const int s = barrier_sense_.load(std::memory_order_relaxed);
  if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) == n - 1) {
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_sense_.store(s ^ 1, std::memory_order_release);
  } else {
    int spins = 0;
    while (barrier_sense_.load(std::memory_order_acquire) == s) {
      if (++spins > 4096) std::this_thread::yield();
    }
  }
  const auto waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  lane.barrier_wall_ns += waited;
  return waited;
}

void ParallelEngine::drain_into(Lane& lane, int my_lane, TimePs until) {
  // Take ONLY the messages due in the upcoming window (at <= until).  The
  // lookahead argument guarantees every such message was posted at least
  // one barrier ago, so the eligible set is deterministic; messages beyond
  // `until` may or may not be present yet (a fast lane can already be
  // posting from the next window), and taking them opportunistically would
  // make per-lane calendar residency — and the peak-queue telemetry —
  // depend on thread scheduling.  They stay pending, in the producer's
  // deterministic FIFO order (one producer per mailbox), until due.
  lane.drain_buf.clear();
  const std::size_t k = lanes_.size();
  for (std::size_t from = 0; from < k; ++from) {
    Mailbox& mb = *mailboxes_[from * k + static_cast<std::size_t>(my_lane)];
    std::lock_guard<std::mutex> lk(mb.mu);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < mb.pending.size(); ++i) {
      if (mb.pending[i].at <= until) {
        lane.drain_buf.push_back(mb.pending[i]);
      } else {
        mb.pending[keep++] = mb.pending[i];
      }
    }
    mb.pending.resize(keep);  // keeps capacity: allocation-free steady state
  }
  // Keys are globally unique (push time | lane | count), so this sort is a
  // total order and the merged schedule is deterministic.
  std::sort(lane.drain_buf.begin(), lane.drain_buf.end(),
            [](const BoundaryMsg& a, const BoundaryMsg& b) {
              return a.at < b.at || (a.at == b.at && a.key < b.key);
            });
  for (const BoundaryMsg& m : lane.drain_buf) hooks_->shard_apply_boundary(m);
}

void ParallelEngine::run_windows(Lane& lane, int my_lane, TimePs from,
                                 TimePs deadline) {
  const TimePs l = plan_.lookahead;
  TimePs w = from;
  std::uint64_t windows = 0;
  auto step = [&](TimePs start, TimePs stop, std::uint64_t bar_ns) {
    // After a lane failed, the others keep attending barriers (the window
    // count is the same for every lane) but stop simulating, so the epoch
    // winds down without deadlock and the coordinator can rethrow.
    if (failed_.load(std::memory_order_acquire)) return;
    try {
      if (win_stats_cap_ == 0) {
        drain_into(lane, my_lane, stop);
        lane.sim.run_until(stop);
        return;
      }
      // Window-stat recording is a pure observer: the clock reads and ring
      // write sit outside the simulated path entirely.
      const std::uint64_t posted0 = lane.posted;
      const std::uint64_t ev0 = lane.sim.events_executed();
      const auto t0 = std::chrono::steady_clock::now();
      drain_into(lane, my_lane, stop);
      const auto drained = static_cast<std::uint32_t>(lane.drain_buf.size());
      lane.sim.run_until(stop);
      LaneWindowStat st;
      st.t_start = start;
      st.t_end = stop;
      st.events = lane.sim.events_executed() - ev0;
      st.run_wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      st.barrier_wall_ns = bar_ns;
      st.drained = drained;
      st.posted = static_cast<std::uint32_t>(lane.posted - posted0);
      if (lane.win_ring.size() < win_stats_cap_) {
        lane.win_ring.push_back(st);
      } else {
        lane.win_ring[static_cast<std::size_t>(lane.win_recorded %
                                               win_stats_cap_)] = st;
      }
      ++lane.win_recorded;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
    }
  };
  while (w < deadline) {
    const std::uint64_t bar_ns = barrier_wait(lane);
    step(w, std::min(w + l, deadline) - 1, bar_ns);
    w += l;
    ++windows;
  }
  // Closing pass: messages posted during the final window may target a time
  // up to and including `deadline` itself; run them now.
  const std::uint64_t bar_ns = barrier_wait(lane);
  step(deadline, deadline, bar_ns);
  if (my_lane == 0) windows_executed_ += windows + 1;
}

void ParallelEngine::worker_main(int my_lane) {
  Lane& lane = *lanes_[static_cast<std::size_t>(my_lane)];
  shard::tl_lane = my_lane;
  shard::tl_sim = &lane.sim;
  for (;;) {
    TimePs from;
    TimePs deadline;
    {
      std::unique_lock<std::mutex> lk(epoch_mu_);
      epoch_cv_.wait(lk, [&] { return shutdown_ || epoch_ != lane.epoch_seen; });
      if (shutdown_) return;
      lane.epoch_seen = epoch_;
      from = synced_;
      deadline = epoch_deadline_;
    }
    run_windows(lane, my_lane, from, deadline);
    {
      std::lock_guard<std::mutex> lk(epoch_mu_);
      if (++workers_done_ == static_cast<int>(lanes_.size())) {
        done_cv_.notify_one();
      }
    }
  }
}

std::uint64_t ParallelEngine::run_until(TimePs deadline) {
  assert(!lanes_.empty() && "configure() first");
  assert(deadline != kTimeNever && "the window loop needs a finite horizon");
  if (deadline <= synced_) return 0;
  {
    std::lock_guard<std::mutex> lk(epoch_mu_);
    epoch_deadline_ = deadline;
    workers_done_ = 0;
    ++epoch_;
  }
  epoch_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(epoch_mu_);
    done_cv_.wait(lk, [&] { return workers_done_ == static_cast<int>(lanes_.size()); });
  }
  synced_ = deadline;
  if (failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(error_mu_);
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
  const std::uint64_t total = events_executed();
  const std::uint64_t delta = total - events_prev_;
  events_prev_ = total;
  return delta;
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->sim.events_executed();
  return n;
}

std::uint64_t ParallelEngine::causality_violations() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->sim.causality_violations();
  return n;
}

std::size_t ParallelEngine::queue_len() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->sim.queue_len();
  for (const auto& mb : mailboxes_) n += mb->pending.size();
  return n;
}

std::size_t ParallelEngine::peak_queue_len() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->sim.peak_queue_len();
  return n;
}

std::uint64_t ParallelEngine::boundary_events() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->posted;
  return n;
}

std::uint64_t ParallelEngine::order_ties() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->sim.order_ties();
  return n;
}

std::uint64_t ParallelEngine::barrier_wait_ns_total() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->barrier_wall_ns;
  return n;
}

std::uint64_t ParallelEngine::cross_lane_credits() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->posted_credits;
  return n;
}

std::size_t ParallelEngine::mailbox_depth_peak() const {
  std::size_t n = 0;
  for (const auto& mb : mailboxes_) n = std::max(n, mb->depth_peak);
  return n;
}

double ParallelEngine::lane_imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const auto& lane : lanes_) {
    const std::uint64_t e = lane->sim.events_executed();
    total += e;
    max = std::max(max, e);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(lanes_.size());
  return static_cast<double>(max) / mean;
}

void ParallelEngine::enable_window_stats(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  win_stats_cap_ = capacity;
  for (auto& lane : lanes_) {
    lane->win_ring.clear();
    lane->win_ring.reserve(capacity);
    lane->win_recorded = 0;
  }
}

std::vector<LaneWindowStat> ParallelEngine::window_stats(int i) const {
  const Lane& lane = *lanes_[static_cast<std::size_t>(i)];
  std::vector<LaneWindowStat> out;
  const std::size_t n = lane.win_ring.size();
  out.reserve(n);
  // When wrapped, the oldest surviving window sits at the write head.
  const std::size_t head =
      n == 0 ? 0 : static_cast<std::size_t>(lane.win_recorded % n);
  for (std::size_t j = 0; j < n; ++j) {
    out.push_back(lane.win_ring[lane.win_recorded > n ? (head + j) % n : j]);
  }
  return out;
}

void ParallelEngine::for_each_pending(
    const std::function<void(const BoundaryMsg&)>& fn) const {
  for (const auto& mb : mailboxes_) {
    for (const BoundaryMsg& m : mb->pending) fn(m);
  }
}

}  // namespace itb
