#include "sim/stats.hpp"

#include <cassert>
#include <cmath>

namespace itb {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : width_(bucket_width), linear_(num_buckets), counts_(num_buckets, 0) {
  assert(bucket_width > 0.0 && num_buckets > 0);
}

double Histogram::tail_edge(std::size_t j) const {
  return width_ * static_cast<double>(linear_) *
         std::pow(kTailGrowth, static_cast<double>(j));
}

void Histogram::add(double x) {
  ++total_;
  if (x < 0) x = 0;
  const auto idx = static_cast<std::size_t>(x / width_);
  if (idx < linear_) {
    ++counts_[idx];
    return;
  }
  // The logarithm picks the tail bucket; the edges, computed exactly as
  // quantile() reports them, correct its rounding.
  const double est = std::log(x / tail_edge(0)) / std::log(kTailGrowth);
  std::size_t j = 0;
  if (est >= static_cast<double>(kMaxTail - 1)) {
    j = kMaxTail - 1;
  } else if (est > 0) {
    j = static_cast<std::size_t>(est);
  }
  while (j > 0 && tail_edge(j) > x) --j;
  while (j + 1 < kMaxTail && tail_edge(j + 1) <= x) ++j;
  if (linear_ + j >= counts_.size()) counts_.resize(linear_ + j + 1, 0);
  ++counts_[linear_ + j];
}

std::uint64_t Histogram::overflow() const {
  std::uint64_t n = 0;
  for (std::size_t i = linear_; i < counts_.size(); ++i) n += counts_[i];
  return n;
}

double Histogram::quantile(double q) const {
  assert(total_ > 0);
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) {
      return i < linear_ ? width_ * static_cast<double>(i + 1)
                         : tail_edge(i - linear_ + 1);
    }
  }
  return tail_edge(counts_.size() - linear_);
}

}  // namespace itb
