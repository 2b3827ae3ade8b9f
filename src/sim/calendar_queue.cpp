#include "sim/calendar_queue.hpp"

#include <cassert>

namespace itb {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void CalendarQueue::remove_min() {
  if (min_in_far_) {
    // Ring drained: re-anchor the window at the popped event's bucket.
    // Every later push is at or after it, so none falls behind base_.
    if (near_size_ == 0) {
      base_ = static_cast<std::uint64_t>(far_.front().at) >> kWidthBits;
    }
    ++far_pops_;
    far_pop();
  } else {
    Bucket& bkt = near_[base_ & (kBuckets - 1)];
    bkt[min_idx_] = bkt.back();  // order within a bucket is irrelevant
    bkt.pop_back();
    --near_size_;
  }
  --size_;
}

Event CalendarQueue::pop() {
  assert(size_ > 0);
  const Event e = *find_min();
  remove_min();
  return e;
}

bool CalendarQueue::pop_if_at_most(TimePs deadline, Event& out) {
  if (size_ == 0) return false;
  const Event* m = find_min();
  if (m->at > deadline) return false;
  out = *m;
  remove_min();
  return true;
}

void CalendarQueue::far_push(const Event& e) {
  far_.push_back(e);
  std::size_t i = far_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!event_before(far_[i], far_[parent])) break;
    std::swap(far_[i], far_[parent]);
    i = parent;
  }
}

void CalendarQueue::far_pop() {
  far_.front() = far_.back();
  far_.pop_back();
  const std::size_t n = far_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        (first_child + kArity < n) ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (event_before(far_[c], far_[best])) best = c;
    }
    if (!event_before(far_[best], far_[i])) break;
    std::swap(far_[i], far_[best]);
    i = best;
  }
}

}  // namespace itb
