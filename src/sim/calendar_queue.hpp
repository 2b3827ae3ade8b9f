// Two-level calendar queue for POD events.
//
// Near future: a ring of 2^10 buckets, each 2^10 ps wide (~1 us horizon —
// covers every network delay up to the host-memory penalty; the ring's
// header array is 24 KB, small enough to live in cache).  Buckets are
// UNSORTED: push is an O(1) append, pop linearly scans the first non-empty
// bucket for its (time, seq) minimum and swap-removes it.  Steady-state
// buckets hold only a handful of events, so the scan is a few comparisons
// over contiguous memory and beats the memmove a sorted insert would pay
// (new events usually carry the latest time, i.e. the far end of a sorted
// bucket).  Far future (beyond the horizon): a 4-ary POD min-heap.  The
// global minimum is the smaller of the bucket minimum and the heap top,
// compared by (time, seq), so simultaneous events fire exactly in push
// order (FIFO-stable); far events are never migrated into the ring.
//
// The window start (`base_`) only advances lazily, past buckets verified
// empty while locating the minimum.  A push whose bucket index falls behind
// `base_` (possible when the scan overshot the clock) is clamped into the
// base bucket: the clamped event is earlier than everything in later
// buckets and the min-scan orders it correctly within the bucket by its
// true (time, seq) key.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace itb {

class CalendarQueue {
 public:
  static constexpr int kWidthBits = 10;   // 1024 ps per bucket
  static constexpr int kBucketBits = 10;  // 1024 buckets
  static constexpr std::uint64_t kBuckets = std::uint64_t{1} << kBucketBits;
  static constexpr TimePs kHorizonPs = TimePs{1} << (kWidthBits + kBucketBits);

  CalendarQueue() : near_(kBuckets) { far_.reserve(1024); }

  /// Schedule an event at absolute time `at` (>= 0).  Events with equal
  /// timestamps pop in push order.
  void push(TimePs at, EventKind kind, std::int32_t ch, std::int32_t a,
            void* p) {
    insert(Event{at, next_seq_++, p, ch, a, kind});
  }

  /// Schedule an event with a caller-supplied (time, seq) key instead of
  /// the internal push counter.  The parallel engine orders every lane's
  /// events by a push-time-derived key (see Simulator::next_shard_key) so
  /// events merged in from other lanes slot into the same total order the
  /// serial engine would have produced.  A queue must be driven entirely
  /// by one key scheme: mixing push() and push_keyed() breaks ordering.
  void push_keyed(TimePs at, std::uint64_t key, EventKind kind,
                  std::int32_t ch, std::int32_t a, void* p) {
    insert(Event{at, key, p, ch, a, kind});
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_; }

  /// Drop all pending events and restart the sequence counter and window,
  /// keeping every bucket's capacity and the far heap's reserve.  Leaves the
  /// queue indistinguishable from a freshly constructed one (workspace-reuse
  /// determinism contract).
  void clear() {
    for (Bucket& b : near_) b.clear();
    far_.clear();
    base_ = 0;
    near_size_ = 0;
    size_ = 0;
    peak_ = 0;
    next_seq_ = 0;
    min_idx_ = 0;
    min_in_far_ = false;
  }

  /// Timestamp of the earliest pending event; kTimeNever when empty.  May
  /// advance the window cursor past empty buckets.
  [[nodiscard]] TimePs next_time() {
    const Event* m = find_min();
    return m != nullptr ? m->at : kTimeNever;
  }

  /// Remove and return the earliest event.  Requires !empty().
  Event pop();

  /// Pop the earliest event into `out` if it exists and its time is
  /// <= `deadline`; otherwise leave the queue untouched.  One minimum
  /// search per executed event — the run loop's fast path.
  bool pop_if_at_most(TimePs deadline, Event& out);

 private:
  using Bucket = std::vector<Event>;

  void insert(const Event& e) {
    std::uint64_t idx = static_cast<std::uint64_t>(e.at) >> kWidthBits;
    if (idx < base_) idx = base_;
    if (idx - base_ >= kBuckets) {
      far_push(e);
    } else {
      near_[idx & (kBuckets - 1)].push_back(e);
      ++near_size_;
    }
    ++size_;
    if (size_ > peak_) peak_ = size_;
  }

  /// Locate the global minimum (nullptr when empty), advancing base_ past
  /// empty buckets (amortised O(1): every bucket skipped stays skipped)
  /// and recording where the minimum lives for removal.
  [[nodiscard]] const Event* find_min() {
    min_in_far_ = false;
    const Event* near_min = nullptr;
    if (near_size_ > 0) {
      std::uint64_t b = base_;
      while (near_[b & (kBuckets - 1)].empty()) ++b;
      base_ = b;
      const Bucket& bkt = near_[b & (kBuckets - 1)];
      std::size_t best = 0;
      for (std::size_t i = 1; i < bkt.size(); ++i) {
        if (event_before(bkt[i], bkt[best])) best = i;
      }
      min_idx_ = best;
      near_min = &bkt[best];
    }
    if (far_.empty()) return near_min;
    const Event* far_min = &far_.front();
    if (near_min == nullptr || event_before(*far_min, *near_min)) {
      min_in_far_ = true;
      return far_min;
    }
    return near_min;
  }

  void remove_min();
  void far_push(const Event& e);
  void far_pop();

  std::vector<Bucket> near_;
  std::vector<Event> far_;  // 4-ary min-heap on (at, seq)
  std::uint64_t base_ = 0;  // absolute index of the window-start bucket
  std::size_t near_size_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t next_seq_ = 0;
  // Where the last find_min located the minimum (valid until mutation).
  std::size_t min_idx_ = 0;
  bool min_in_far_ = false;
};

}  // namespace itb
