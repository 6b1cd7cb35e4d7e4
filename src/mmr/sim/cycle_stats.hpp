// Integer sample statistics.  Every delay the simulator measures is a
// difference of integer cycle stamps, so its accumulators keep integer
// state: a merge is exact, commutative and associative, and a sharded run
// can tally per shard and fold the tallies in any order.  Scaling to µs
// happens once, where results are read (core/metrics.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace mmr {

namespace snapshot {
class Walker;
}

/// 128-bit unsigned accumulator word (a GCC/Clang extension type).
__extension__ typedef unsigned __int128 CycleWide;

/// Count, sum, sum of squares, min and max of integer samples.  The sums
/// are 128-bit, exact while Σx² < 2^128 (2^48 samples of 2^40 cycles).
class CycleStats {
 public:
  void add(std::uint64_t x) {
    ++n_;
    sum_ += x;
    sum_sq_ += static_cast<CycleWide>(x) * x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  void merge(const CycleStats& other);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] CycleWide sum() const { return sum_; }
  [[nodiscard]] CycleWide sum_sq() const { return sum_sq_; }
  [[nodiscard]] std::uint64_t min() const { return n_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  /// 0 when empty.
  [[nodiscard]] double mean() const;
  /// Population variance Σ(x − mean)²/n, from the exact integer sums; 0
  /// when empty.
  [[nodiscard]] double variance() const;

  /// Walks n, sum and sum² (each 128-bit sum as two u64 words, low first),
  /// min, max.
  void snap(snapshot::Walker& w);

  friend bool operator==(const CycleStats&, const CycleStats&) = default;

 private:
  std::uint64_t n_ = 0;
  CycleWide sum_ = 0;
  CycleWide sum_sq_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Histogram of integer samples in one fixed layout: each value below
/// kExact has its own bucket; above, each power of two [2^e, 2^(e+1)) is
/// split into kSubBuckets equal buckets, so a bucket is at most 1/8 as wide
/// as its lower edge and its midpoint is within kRelativeError of every
/// value in it.  Buckets are allocated up to the largest sample's (at most
/// 496), and the layout never changes, so any two histograms merge.
class CycleHistogram {
 public:
  static constexpr std::uint64_t kExact = 16;
  static constexpr std::uint64_t kSubBuckets = 8;
  static constexpr double kRelativeError = 1.0 / 16.0;

  void add(std::uint64_t x) {
    const std::size_t b = bucket_of(x);
    if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
    ++buckets_[b];
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  void merge(const CycleHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] std::uint64_t min() const { return n_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  /// Sample counts per bucket, up to the largest sample's bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// The sample of rank floor(q·(n−1)), q clamped to [0, 1]: exactly min()
  /// and max() at the two extreme ranks, otherwise the midpoint of the
  /// bucket holding that rank, clamped to [min(), max()].  0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t x);
  /// Smallest and largest value bucket `b` holds (both inclusive).
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b);
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b);

  void snap(snapshot::Walker& w);

  friend bool operator==(const CycleHistogram&,
                         const CycleHistogram&) = default;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Jitter: |x_i − x_{i−1}| over one stream of integer samples (the paper's
/// definition — delay variation between adjacent frames of one connection).
class JitterTracker {
 public:
  void add(std::uint64_t x) {
    if (has_prev_) deltas_.add(x > prev_ ? x - prev_ : prev_ - x);
    prev_ = x;
    has_prev_ = true;
  }

  [[nodiscard]] const CycleStats& deltas() const { return deltas_; }

  void snap(snapshot::Walker& w);

 private:
  bool has_prev_ = false;
  std::uint64_t prev_ = 0;
  CycleStats deltas_;
};

}  // namespace mmr
