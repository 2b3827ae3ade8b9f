// Sequence interning for the route store.
//
// The factorized store dedups three kinds of variable-length sequences:
// leg port walks, per-route walk-id lists and per-pair alternative lists.
// Each lives in a SpanPool — one flat item array plus one SpanRec per
// distinct sequence — and SpanInterner is the one place that hashes,
// compares and appends them, for the row-local staging pools and the
// global merge alike.
//
// SpanInterner is an open-addressed hash -> id probe table that owns no
// keys: candidates are compared against the pool they were interned into,
// so a lookup allocates nothing (keying a std::unordered_map by the
// sequence bytes allocated a key per lookup and dominated the build).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace itb {

/// One interned sequence: `count` items of the owning pool from `first`,
/// plus a 16-bit tag that is part of the sequence's identity (routes carry
/// their alternative tag here; walks and alternative lists use 0).
struct SpanRec {
  std::uint32_t first = 0;
  std::uint16_t count = 0;
  std::uint16_t tag = 0;
};

/// Distinct sequences of T, stored back to back in `items`; sequence `id`
/// is recs[id].
template <typename T>
struct SpanPool {
  std::vector<T> items;
  std::vector<SpanRec> recs;

  [[nodiscard]] std::size_t size() const { return recs.size(); }
  [[nodiscard]] std::span<const T> operator[](std::size_t id) const {
    const SpanRec r = recs[id];
    return {items.data() + r.first, r.count};
  }
  void clear() {
    items.clear();
    recs.clear();
  }
};

class SpanInterner {
 public:
  /// Drops all entries but keeps the slot storage (row staging reuses one
  /// interner across blocks).
  void clear() {
    for (Slot& s : slots_) s.id = kEmpty;
    count_ = 0;
  }

  /// Id of (`seq`, `tag`) in `pool`, appending it when absent.  A pool
  /// must only ever be interned through one interner.
  template <typename T>
  std::uint32_t intern(SpanPool<T>& pool, std::span<const T> seq,
                       std::uint16_t tag = 0) {
    if (seq.size() > 0xffff) {
      throw std::length_error("interned sequence exceeds 65535 items");
    }
    // One multiply folds the tag in; tag 0 leaves the sequence hash as is.
    const std::uint64_t hash = fnv1a(seq.data(), seq.size_bytes()) ^
                               (tag * 0x9e3779b97f4a7c15ULL);
    if (slots_.empty()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
         i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id == kEmpty) {
        const auto id = static_cast<std::uint32_t>(pool.recs.size());
        pool.recs.push_back({static_cast<std::uint32_t>(pool.items.size()),
                             static_cast<std::uint16_t>(seq.size()), tag});
        pool.items.insert(pool.items.end(), seq.begin(), seq.end());
        s = Slot{hash, id};
        if (++count_ * 10 >= slots_.size() * 7) grow();
        return id;
      }
      if (s.hash == hash && pool.recs[s.id].tag == tag &&
          std::ranges::equal(pool[s.id], seq)) {
        return s.id;
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kEmpty;
  };

  static std::uint64_t fnv1a(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
    return h;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t i = static_cast<std::size_t>(s.hash) & mask;
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace itb
