// Delay-lane event queue for POD events.
//
// Almost every network event lies a fixed delay ahead of the clock: the
// 50 ns of an 8-flit chunk and the 49.2 ns of a 10 m cable carry ~98% of
// pushes, a dozen delays over 99.5%.  So an event is filed under its delay
// d = at - ref (ref: time of the last popped event) in one of kLanes FIFO
// rings ("lanes") keyed by d.  ref never decreases, so each lane receives
// its events in (time, seq) order: it is sorted by construction and a push
// is an O(1) append.  A 4-ary POD min-heap takes the rest: delays below 0
// or at or past kHorizonPs, and pushes that find no lane.  Pop takes the
// (time, seq) minimum of the non-empty lane heads and the heap top, so
// equal times fire in push order (FIFO-stable) wherever they are stored.
//
// A delay finds its lane by multiplicative hash and linear probing, which
// stops at the first lane holding that delay or empty; a lane takes a new
// key only when empty.  So after a drain one delay may span two lanes for a
// while: each is still sorted, and the head compare orders them.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace itb {

class CalendarQueue {
 public:
  static constexpr int kLanes = 16;
  /// Delays from here on go to the heap (~1 us, past any network delay).
  static constexpr TimePs kHorizonPs = TimePs{1} << 20;

  CalendarQueue() { far_.reserve(1024); }

  /// Schedule an event at absolute time `at` (>= 0).  Events with equal
  /// timestamps pop in push order.
  void push(TimePs at, EventKind kind, std::int32_t ch, std::int32_t a,
            void* p) {
    const Event e{at, next_seq_++, p, ch, a, kind};
    const TimePs d = at - ref_;
    if (d < 0 || d >= kHorizonPs || !lane_push(d, e)) far_push(e);
    ++size_;
    if (size_ > peak_) peak_ = size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_; }
  /// Events pending in the heap rather than a lane.
  [[nodiscard]] std::size_t far_size() const { return far_.size(); }
  /// Events popped from the heap since construction or clear().
  [[nodiscard]] std::uint64_t far_pops() const { return far_pops_; }

  /// Drop all pending events, lane keys and the sequence counter, keeping
  /// ring capacity and the heap's reserve: the queue is then as good as new
  /// (workspace-reuse determinism contract).
  void clear();

  /// Timestamp of the earliest pending event; kTimeNever when empty.
  [[nodiscard]] TimePs next_time() const {
    return size_ == 0 ? kTimeNever : head(min_lane()).at;
  }

  /// Remove and return the earliest event.  Requires !empty().
  Event pop() {
    assert(size_ > 0);
    return take(min_lane());
  }

  /// Pop the earliest event into `out` if it exists and its time is
  /// <= `deadline`; otherwise leave the queue untouched.  One minimum
  /// search per executed event — the run loop's fast path.
  bool pop_if_at_most(TimePs deadline, Event& out) {
    if (size_ == 0) return false;
    const int lane = min_lane();
    if (head(lane).at > deadline) return false;
    out = take(lane);
    return true;
  }

 private:
  static constexpr int kHeap = -1;  // min_lane() result: the heap top
  static constexpr std::uint32_t kMinRing = 16;

  // (at, seq) as one integer, so a single compare orders two events.
  __extension__ typedef unsigned __int128 Key;
  static Key key_of(const Event& e) {
    return static_cast<Key>(static_cast<std::uint64_t>(e.at)) << 64 | e.seq;
  }

  // FIFO ring of events sharing one delay; capacity mask + 1 is a power of 2.
  struct Lane {
    std::vector<Event> ring = std::vector<Event>(kMinRing);
    std::uint32_t mask = kMinRing - 1;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    TimePs key = 0;
    [[nodiscard]] const Event& front() const { return ring[head]; }
  };

  [[nodiscard]] bool lane_push(TimePs d, const Event& e) {
    const auto hash = static_cast<std::uint64_t>(d) * 0x9E3779B97F4A7C15ull;
    auto i = static_cast<std::uint32_t>(hash >> 60);  // 16 lanes: top 4 bits
    for (int probe = 0; probe < kLanes; ++probe, i = (i + 1) % kLanes) {
      Lane& l = lanes_[i];
      if (l.count > 0 && l.key != d) continue;
      if (l.count == 0) heads_[i] = key_of(e);  // an empty lane takes key d
      l.key = d;
      live_ |= 1u << i;
      if (l.count > l.mask) grow(l);
      l.ring[(l.head + l.count) & l.mask] = e;
      ++l.count;
      return true;
    }
    return false;
  }

  /// Lane index of the (time, seq) minimum, or kHeap.  Requires !empty().
  [[nodiscard]] int min_lane() const {
    int best = kHeap;
    Key m = far_.empty() ? ~Key{0} : key_of(far_.front());
    for (std::uint32_t bits = live_; bits != 0; bits &= bits - 1) {
      const auto i = static_cast<unsigned>(__builtin_ctz(bits));
      const bool lt = heads_[i] < m;  // select, not branch: lt is random
      best = lt ? static_cast<int>(i) : best;
      m = lt ? heads_[i] : m;
    }
    return best;
  }

  [[nodiscard]] const Event& head(int lane) const {
    if (lane == kHeap) return far_.front();
    return lanes_[static_cast<std::size_t>(lane)].front();
  }

  Event take(int lane) {
    const Event e = head(lane);
    if (lane == kHeap) {
      ++far_pops_;
      far_pop();
    } else {
      Lane& l = lanes_[static_cast<std::size_t>(lane)];
      l.head = (l.head + 1) & l.mask;
      heads_[static_cast<std::size_t>(lane)] = key_of(l.front());
      if (--l.count == 0) live_ &= ~(1u << lane);
    }
    ref_ = e.at;
    --size_;
    return e;
  }
  static void grow(Lane& l);
  void far_push(const Event& e);
  void far_pop();

  std::array<Lane, kLanes> lanes_;
  std::array<Key, kLanes> heads_{};  // head keys; read only while live
  std::uint32_t live_ = 0;           // bit i set: lane i is non-empty
  std::vector<Event> far_;           // 4-ary min-heap on (at, seq)
  TimePs ref_ = 0;                   // time of the last popped event
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t far_pops_ = 0;
};

}  // namespace itb
