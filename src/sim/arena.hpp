// Monotonic per-run arena for transient hot-path allocations.
//
// The simulation engine's small dynamic containers (buffer-entry FIFOs,
// output-request lists, wire-order chunk lists, NIC queues) spill here when
// they outgrow their inline storage (see short_queue.hpp), and each source
// NIC's round-robin rotation row is drawn here on its first multi-path pick
// (see core/path_policy.hpp).  Allocation is a bump of a cursor inside a
// chunked block list; nothing is ever freed individually.  rewind()
// recycles every block for the next run, so a workspace that is reused
// across simulation points performs ZERO global heap allocations once the
// block list has grown to the workload's high-water mark — the property
// RunResult::heap_allocs_steady_state reports (asserted by test_workspace).
//
// Single-threaded by design: each Network owns one arena and a Network is
// only ever driven by one thread (the per-worker workspace contract).
//
// Under AddressSanitizer every byte not handed out since the last rewind is
// poisoned, so a spilled buffer or rotation row read after the next run's
// reset fails loudly instead of reading the new run's data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ITB_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ITB_ARENA_ASAN 1
#endif
#endif
#ifdef ITB_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace itb {

class Arena {
 public:
  static constexpr std::size_t kMinBlockBytes = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` (16-byte aligned).  Falls through to a new heap
  /// block only when every retained block is exhausted.
  [[nodiscard]] void* allocate(std::size_t bytes) {
    bytes = (bytes + 15) & ~std::size_t{15};
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      if (b.used + bytes <= b.size) {
        void* p = b.mem.get() + b.used;
        unpoison(p, bytes);
        b.used += bytes;
        in_use_ += bytes;
        if (in_use_ > peak_) peak_ = in_use_;
        return p;
      }
      ++cur_;  // block exhausted for this run; try the next retained one
    }
    const std::size_t size = bytes > kMinBlockBytes ? bytes : kMinBlockBytes;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size, bytes});
    poison(blocks_.back().mem.get() + bytes, size - bytes);
    ++heap_block_allocs_;
    in_use_ += bytes;
    if (in_use_ > peak_) peak_ = in_use_;
    return blocks_.back().mem.get();
  }

  /// Recycle every block for the next run.  Spilled container buffers and
  /// rotation rows become dangling — callers must drop them
  /// (ShortQueue::reset, PathSelector::reset) before rewinding.
  void rewind() {
    for (Block& b : blocks_) {
      b.used = 0;
      poison(b.mem.get(), b.size);
    }
    cur_ = 0;
    in_use_ = 0;
    peak_ = 0;
  }

  /// Bytes handed out since the last rewind (live + abandoned-by-growth).
  [[nodiscard]] std::size_t bytes_in_use() const { return in_use_; }
  /// High-water mark of bytes_in_use() since the last rewind.
  [[nodiscard]] std::size_t bytes_peak() const { return peak_; }
  /// Cumulative count of new blocks obtained from the global heap (never
  /// reset by rewind: a reused workspace should stop incrementing it).
  [[nodiscard]] std::uint64_t heap_block_allocs() const {
    return heap_block_allocs_;
  }
  [[nodiscard]] std::size_t blocks_retained() const { return blocks_.size(); }

 private:
  static void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef ITB_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void unpoison([[maybe_unused]] void* p,
                       [[maybe_unused]] std::size_t n) {
#ifdef ITB_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;  // first block with free space
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t heap_block_allocs_ = 0;
};

}  // namespace itb
