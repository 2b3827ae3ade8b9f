// Conservative (lookahead/window) parallel driver for one sharded
// simulation.
//
// The simulation's element graph is split into K lanes by a PartitionPlan;
// each lane is an ordinary kPod Simulator (calendar queue, arena, POD
// handler) running in shard-key mode, pinned to one persistent worker
// thread.  Time advances in windows of width `lookahead` — the minimum
// propagation delay over cut cables — under a barrier scheme:
//
//   w = synced
//   while (w < deadline):
//     barrier                     # all lanes quiescent at their window end
//     drain my mailboxes          # apply cross-lane events, sorted by key
//     run_until(min(w+L, deadline) - 1)
//     w += L
//   barrier; drain; run_until(deadline)   # closing pass: events AT deadline
//
// Any event crossing a cut cable is delayed by >= L, so a message posted
// during window [w, w+L) targets a time >= w+L and is drained before the
// receiving lane enters that window: no lane ever receives an event in its
// past (Simulator::schedule_event_keyed_at counts any such occurrence as a
// causality violation, surfaced by the harness).  One barrier per window;
// mailboxes are quiescent during drains because posts only happen inside
// run_until, which every lane has left.
//
// Determinism: every event carries a key derived from its push time and
// pushing lane (Simulator::next_shard_key), minted by the pushing lane and
// carried through the mailbox, so local and remote events merge into the
// same total order the serial engine's global push counter encodes — up to
// pushes from different lanes at the exact same picosecond, which the lanes
// count (order_ties) so a differential test can assert the sharded schedule
// was bit-identical to the serial one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event.hpp"
#include "sim/partition.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace itb {

/// A cross-lane event in flight: the POD event payload plus the key minted
/// by the pushing lane, plus an optional piggybacked flow announcement (the
/// receiver-half `incoming` entry a cross-lane grant_done could not write
/// directly; applied just before the first chunk's arrival is scheduled).
struct BoundaryMsg {
  TimePs at;
  std::uint64_t key;
  void* announce_pkt;  // nullptr: no announcement rides along
  std::int32_t announce_len;
  std::int32_t ch;
  std::int32_t a;
  EventKind kind;
};

/// Receiver of drained boundary messages (implemented by Network): applies
/// any piggybacked announcement to lane-owned state, then schedules the
/// event on the current lane's Simulator with the carried key.
class ShardHooks {
 public:
  virtual void shard_apply_boundary(const BoundaryMsg& m) = 0;

 protected:
  ~ShardHooks() = default;
};

namespace shard {
/// Lane identity of the current thread (-1 on the coordinator).  The
/// Network's hot path reads these instead of taking a lane parameter:
/// cursim() is `tl_lane >= 0 ? *tl_sim : *serial_sim`.
extern thread_local std::int32_t tl_lane;
extern thread_local Simulator* tl_sim;
}  // namespace shard

/// One lookahead window as one lane experienced it (engine health layer;
/// recorded only while enable_window_stats() is on).  Simulated bounds plus
/// host-side wall clocks: `barrier_wall_ns` is the wait that preceded this
/// window (how long this lane idled for the slowest lane), `run_wall_ns`
/// the drain + run_until work itself — the per-window load-imbalance and
/// lookahead-slack signals the Perfetto health tracks render.
struct LaneWindowStat {
  TimePs t_start = 0;
  TimePs t_end = 0;                  // inclusive (run_until's contract)
  std::uint64_t events = 0;          // events this lane executed in-window
  std::uint64_t run_wall_ns = 0;
  std::uint64_t barrier_wall_ns = 0;
  std::uint32_t drained = 0;         // mailbox messages applied at entry
  std::uint32_t posted = 0;          // cross-lane messages sent in-window
};

class ParallelEngine {
 public:
  ParallelEngine() = default;
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;
  ~ParallelEngine();

  /// Adopt a partition plan for the next run: (re)create lanes and worker
  /// threads if the lane count changed (threads persist across runs
  /// otherwise — the workspace-reuse contract), reset every lane Simulator
  /// into shard-key mode, and clear all mailboxes and counters.
  void configure(PartitionPlan plan);

  /// Register the POD event receiver and boundary hook (the Network) on
  /// every lane.  Call after configure() and after the Network is reset.
  void bind(PodHandler* handler, ShardHooks* hooks);

  [[nodiscard]] const PartitionPlan& plan() const { return plan_; }
  [[nodiscard]] int lanes() const { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] Simulator& lane(int i) { return lanes_[static_cast<std::size_t>(i)]->sim; }
  [[nodiscard]] const Simulator& lane(int i) const {
    return lanes_[static_cast<std::size_t>(i)]->sim;
  }

  /// Advance every lane to `deadline` (events at exactly `deadline` still
  /// execute) through the window protocol above.  Blocks the calling thread
  /// until all lanes are synced at `deadline`.  Returns events executed
  /// across all lanes by this call.  Rethrows the first exception any lane
  /// worker raised.
  std::uint64_t run_until(TimePs deadline);

  /// Post a boundary message to `to_lane`'s mailbox (worker threads only;
  /// the sending lane is the calling thread's shard::tl_lane).
  void post(int to_lane, const BoundaryMsg& m);

  // --- aggregates over all lanes (coordinator thread, lanes quiescent) ---
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::uint64_t causality_violations() const;
  /// Pending events: lane calendars plus undrained mailbox messages — with
  /// the coordinator Simulator's own queue this equals the serial pending
  /// set exactly.
  [[nodiscard]] std::size_t queue_len() const;
  /// Sum of lane peaks: an upper bound, NOT comparable to the serial peak
  /// (lanes peak at different times).
  [[nodiscard]] std::size_t peak_queue_len() const;
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_executed_; }
  /// Messages posted across lane boundaries.
  [[nodiscard]] std::uint64_t boundary_events() const;
  /// Same-picosecond cross-lane ordering ties (see header comment).
  [[nodiscard]] std::uint64_t order_ties() const;

  // --- engine health layer ----------------------------------------------
  // Cheap scalar counters below are always collected (O(1) per barrier /
  // post); the per-window ring is opt-in via enable_window_stats().

  /// Wall time lanes spent waiting at window barriers, summed over lanes —
  /// the sharding overhead that is NOT simulation work.
  [[nodiscard]] std::uint64_t barrier_wait_ns_total() const;
  /// Cross-lane stop/go credit messages (subset of boundary_events()).
  [[nodiscard]] std::uint64_t cross_lane_credits() const;
  /// Deepest any (from, to) mailbox ever got — backlog high-water mark.
  [[nodiscard]] std::size_t mailbox_depth_peak() const;
  /// Events executed by one lane (load-balance signal).
  [[nodiscard]] std::uint64_t lane_events(int i) const {
    return lanes_[static_cast<std::size_t>(i)]->sim.events_executed();
  }
  /// max / mean of per-lane event counts (1.0 = perfectly balanced; 0 when
  /// nothing ran).
  [[nodiscard]] double lane_imbalance() const;

  /// Start recording per-window LaneWindowStat rings (bounded: each lane
  /// keeps its most recent `capacity` windows, like the trace ring).  Call
  /// after configure(), before run_until(); configure() disables again.
  void enable_window_stats(std::size_t capacity);
  /// Lane `i`'s recorded windows in chronological order (coordinator
  /// thread, lanes quiescent).
  [[nodiscard]] std::vector<LaneWindowStat> window_stats(int i) const;

  /// Walk every undrained mailbox message (coordinator thread, lanes
  /// quiescent).  The Network's liveness census uses this: a packet's only
  /// live reference may be a piggybacked announcement still in flight.
  void for_each_pending(const std::function<void(const BoundaryMsg&)>& fn) const;

 private:
  struct Mailbox {
    std::mutex mu;
    std::vector<BoundaryMsg> pending;
    std::size_t depth_peak = 0;  // guarded by mu; read quiescent
  };

  struct alignas(64) Lane {
    Simulator sim;
    std::thread thread;
    std::vector<BoundaryMsg> drain_buf;  // reused across drains
    std::uint64_t posted = 0;            // messages this lane sent
    std::uint64_t posted_credits = 0;    // ... of which stop/go credits
    std::uint64_t barrier_wall_ns = 0;   // wall time idling at barriers
    std::uint64_t epoch_seen = 0;
    // Per-window stat ring (enable_window_stats): written by the owning
    // worker between barriers, read by the coordinator when quiescent (the
    // epoch handoff's mutex orders both).
    std::vector<LaneWindowStat> win_ring;
    std::uint64_t win_recorded = 0;
  };

  void worker_main(int my_lane);
  void run_windows(Lane& lane, int my_lane, TimePs from, TimePs deadline);
  void drain_into(Lane& lane, int my_lane, TimePs until);
  std::uint64_t barrier_wait(Lane& lane);
  void shutdown_workers();

  PartitionPlan plan_;
  ShardHooks* hooks_ = nullptr;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // [from * K + to]

  // Epoch handoff coordinator <-> workers (workers sleep between calls).
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  int workers_done_ = 0;
  bool shutdown_ = false;
  TimePs epoch_deadline_ = 0;
  TimePs synced_ = 0;  // time every lane has reached

  // Sense-reversing spin barrier (workers only; bounded spin then yield).
  std::atomic<int> barrier_count_{0};
  std::atomic<int> barrier_sense_{0};

  std::uint64_t windows_executed_ = 0;
  std::uint64_t events_prev_ = 0;  // events_executed() at last run_until exit
  std::size_t win_stats_cap_ = 0;  // 0 = per-window rings disabled

  std::mutex error_mu_;
  std::exception_ptr first_error_;       // guarded by error_mu_
  std::atomic<bool> failed_{false};      // advisory fast flag for workers
};

}  // namespace itb
