#include "sim/calendar_queue.hpp"

#include <algorithm>

namespace itb {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void CalendarQueue::clear() {
  for (Lane& l : lanes_) l.head = l.count = 0;
  live_ = 0;
  far_.clear();
  ref_ = 0;
  size_ = 0;
  peak_ = 0;
  next_seq_ = 0;
  far_pops_ = 0;
}

void CalendarQueue::grow(Lane& l) {  // l is full: unroll it and double it
  std::rotate(l.ring.begin(), l.ring.begin() + l.head, l.ring.end());
  l.ring.resize(2 * l.ring.size());
  l.mask = 2 * l.mask + 1;
  l.head = 0;
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
