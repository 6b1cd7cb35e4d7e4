#include "mmr/sim/cycle_stats.hpp"

#include <algorithm>
#include <bit>

#include "mmr/snapshot/walker.hpp"

namespace mmr {

namespace {

// Bucket b >= kExact covers [2^e, 2^(e+1)) sub-bucket s: e and s below.
constexpr unsigned kSubBits = std::countr_zero(CycleHistogram::kSubBuckets);
constexpr unsigned kFirstExponent = std::countr_zero(CycleHistogram::kExact);

}  // namespace

void CycleStats::merge(const CycleStats& other) {
  n_ += other.n_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double CycleStats::mean() const {
  return n_ == 0 ? 0.0
                 : static_cast<double>(sum_) / static_cast<double>(n_);
}

double CycleStats::variance() const {
  if (n_ == 0) return 0.0;
  // n·M2 = n·Σx² − (Σx)².  With Σx = q·n + r, M2 = Σx² − q·(Σx + r) − r²/n,
  // where the first difference is an exact, non-negative integer (it is at
  // least r²/n >= 0) and only the fraction r²/n is rounded.
  const CycleWide q = sum_ / n_;
  const CycleWide r = sum_ % n_;
  const CycleWide whole = sum_sq_ - q * (sum_ + r);
  const double m2 = static_cast<double>(whole) -
                    static_cast<double>(r * r) / static_cast<double>(n_);
  return m2 / static_cast<double>(n_);
}

void CycleStats::snap(snapshot::Walker& w) {
  snapshot::value(w, n_);
  w.bytes(&sum_, sizeof sum_);
  w.bytes(&sum_sq_, sizeof sum_sq_);
  snapshot::value(w, min_);
  snapshot::value(w, max_);
}

std::size_t CycleHistogram::bucket_of(std::uint64_t x) {
  if (x < kExact) return static_cast<std::size_t>(x);
  const auto e = static_cast<unsigned>(std::bit_width(x)) - 1;
  const std::uint64_t sub = (x >> (e - kSubBits)) & (kSubBuckets - 1);
  return static_cast<std::size_t>(kExact + (e - kFirstExponent) * kSubBuckets +
                                  sub);
}

std::uint64_t CycleHistogram::bucket_lo(std::size_t b) {
  if (b < kExact) return b;
  const std::uint64_t e = kFirstExponent + (b - kExact) / kSubBuckets;
  const std::uint64_t sub = (b - kExact) % kSubBuckets;
  return (kSubBuckets + sub) << (e - kSubBits);
}

std::uint64_t CycleHistogram::bucket_hi(std::size_t b) {
  if (b < kExact) return b;
  const std::uint64_t e = kFirstExponent + (b - kExact) / kSubBuckets;
  return bucket_lo(b) + ((std::uint64_t{1} << (e - kSubBits)) - 1);
}

void CycleHistogram::merge(const CycleHistogram& other) {
  if (buckets_.size() < other.buckets_.size())
    buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < other.buckets_.size(); ++b)
    buckets_[b] += other.buckets_[b];
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double CycleHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  // The extreme order statistics are known exactly.
  if (rank == 0) return static_cast<double>(min_);
  if (rank == n_ - 1) return static_cast<double>(max_);
  std::uint64_t seen = 0;
  std::size_t b = 0;
  while (seen + buckets_[b] <= rank) seen += buckets_[b++];
  const std::uint64_t lo = std::max(bucket_lo(b), min_);
  const std::uint64_t hi = std::min(bucket_hi(b), max_);
  return static_cast<double>(lo) + static_cast<double>(hi - lo) / 2.0;
}

void CycleHistogram::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, buckets_);
  snapshot::value(w, n_);
  snapshot::value(w, min_);
  snapshot::value(w, max_);
}

void JitterTracker::snap(snapshot::Walker& w) {
  snapshot::value(w, has_prev_);
  snapshot::value(w, prev_);
  deltas_.snap(w);
}

}  // namespace mmr
