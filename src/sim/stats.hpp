// Streaming statistics used by the metric collectors.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace itb {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset() { *this = RunningStats{}; }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width linear histogram with a geometric tail; supports
/// approximate quantiles.  Used for latency distributions (bucket width in
/// ns chosen by the collector).
class Histogram {
 public:
  /// `bucket_width` > 0.  Values below top = bucket_width*num_buckets land
  /// in the linear buckets.  Values at or past top land in the tail, whose
  /// bucket j spans [top*g^j, top*g^(j+1)) with g = kTailGrowth, so a
  /// quantile in the tail is reported at most 1% above the true value.
  /// The tail grows on demand up to kMaxTail buckets (top*1e18); anything
  /// past that is counted in its last bucket.
  Histogram(double bucket_width, std::size_t num_buckets);

  static constexpr double kTailGrowth = 1.01;
  static constexpr std::size_t kMaxTail = 4200;

  void add(double x);
  /// Zero every bucket in place (no reallocation — reset_window and
  /// workspace reuse call this once per measurement window).
  void clear() {
    counts_.assign(linear_, 0);
    total_ = 0;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// q in [0,1]; returns the upper edge of the bucket containing the
  /// q-quantile.  Requires count() > 0.
  [[nodiscard]] double quantile(double q) const;
  /// Samples past the linear range (held in the tail).
  [[nodiscard]] std::uint64_t overflow() const;
  /// The linear buckets.
  [[nodiscard]] std::span<const std::uint64_t> buckets() const {
    return {counts_.data(), linear_};
  }
  [[nodiscard]] double bucket_width() const { return width_; }

 private:
  /// Lower edge of tail bucket j.
  [[nodiscard]] double tail_edge(std::size_t j) const;

  double width_;
  std::size_t linear_;                  // linear bucket count
  std::vector<std::uint64_t> counts_;   // linear buckets, then the tail
  std::uint64_t total_ = 0;
};

}  // namespace itb
