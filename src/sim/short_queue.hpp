// ShortQueue<T, N>: contiguous FIFO/vector hybrid with inline storage for
// the N-element common case and arena spill beyond it.
//
// The engine's per-channel lists (buffer entries, wire-order chunk lists,
// output requests) and per-NIC queues hold 1-4 elements almost always, so
// std::deque/std::vector paid a heap allocation (or a deque block walk) for
// state that fits in the parent struct.  This container keeps those
// elements inline, and when a queue does grow past N (deep backlogs past
// saturation) the buffer comes from the monotonic Arena that push_back is
// given — the owning Network's, never the global heap — so steady-state
// simulation performs no malloc at all (see arena.hpp).  The queue keeps
// no pointer to that arena: thousands of queues live in the Network's
// channel and NIC arrays, and every push site has the one arena at hand.
//
// Contract:
//  * T must be trivially copyable (elements move by memcpy, no destructors).
//  * The queue itself is trivially copyable: relocating the parent struct
//    (vector resize during Network::reset) carries inline elements along
//    and spilled buffers by pointer.  Callers never copy a live queue into
//    a second live owner.
//  * reset() drops any spilled buffer WITHOUT freeing (the arena owns the
//    memory) — call it before Arena::rewind, never after.
//  * pop_front is O(1) (a cursor bump); the buffer is compacted or grown
//    only when push_back hits the physical end.  Growth policy is a pure
//    function of the element counts, so reused and fresh containers behave
//    identically — part of the workspace determinism contract.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sim/arena.hpp"

namespace itb {

template <typename T, int N>
class ShortQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "ShortQueue elements relocate by memcpy");
  static_assert(N >= 1);

 public:
  /// Drop every element and any spilled buffer.  The spilled buffer is
  /// abandoned to the arena it came from.
  void reset() {
    heap_ = nullptr;
    cap_ = N;
    begin_ = 0;
    end_ = 0;
  }

  [[nodiscard]] bool empty() const { return begin_ == end_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(end_ - begin_);
  }

  [[nodiscard]] T* begin() { return data() + begin_; }
  [[nodiscard]] T* end() { return data() + end_; }
  [[nodiscard]] const T* begin() const { return data() + begin_; }
  [[nodiscard]] const T* end() const { return data() + end_; }

  [[nodiscard]] T& front() {
    assert(!empty());
    return data()[begin_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return data()[begin_];
  }
  [[nodiscard]] T& back() {
    assert(!empty());
    return data()[end_ - 1];
  }
  [[nodiscard]] const T& back() const {
    assert(!empty());
    return data()[end_ - 1];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size());
    return data()[begin_ + static_cast<std::int32_t>(i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size());
    return data()[begin_ + static_cast<std::int32_t>(i)];
  }

  /// Append `v`; a full buffer spills into `arena` (always the same arena
  /// between two resets).
  void push_back(const T& v, Arena& arena) {
    if (end_ == cap_) make_room(arena);
    data()[end_++] = v;
  }

  void pop_front() {
    assert(!empty());
    ++begin_;
    if (begin_ == end_) begin_ = end_ = 0;  // empty: reclaim the whole buffer
  }

  /// Remove the element `it` points at (shifts the tail left one slot).
  /// Iterators/references past `it` are invalidated.
  void erase(T* it) {
    assert(it >= begin() && it < end());
    std::memmove(it, it + 1,
                 static_cast<std::size_t>(end() - it - 1) * sizeof(T));
    --end_;
    if (begin_ == end_) begin_ = end_ = 0;
  }

 private:
  [[nodiscard]] T* data() {
    return heap_ != nullptr ? heap_ : reinterpret_cast<T*>(inline_);
  }
  [[nodiscard]] const T* data() const {
    return heap_ != nullptr ? heap_ : reinterpret_cast<const T*>(inline_);
  }

  /// Out of physical room at the back: slide the live range to the front
  /// when at most half the buffer is occupied, otherwise double into the
  /// arena.  Pure function of (begin_, end_, cap_) — deterministic.
  void make_room(Arena& arena) {
    const std::int32_t live = end_ - begin_;
    if (begin_ > 0 && live * 2 <= cap_) {
      std::memmove(data(), data() + begin_,
                   static_cast<std::size_t>(live) * sizeof(T));
    } else {
      const std::int32_t new_cap = cap_ * 2;
      T* nb = static_cast<T*>(
          arena.allocate(static_cast<std::size_t>(new_cap) * sizeof(T)));
      std::memcpy(nb, data() + begin_,
                  static_cast<std::size_t>(live) * sizeof(T));
      heap_ = nb;  // the previous spill (if any) is abandoned to the arena
      cap_ = new_cap;
    }
    begin_ = 0;
    end_ = live;
  }

  T* heap_ = nullptr;        // nullptr: elements live in inline_
  std::int32_t cap_ = N;     // physical slots in the active buffer
  std::int32_t begin_ = 0;   // first live slot
  std::int32_t end_ = 0;     // one past the last live slot
  alignas(T) std::byte inline_[static_cast<std::size_t>(N) * sizeof(T)];
};

}  // namespace itb
