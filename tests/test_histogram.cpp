// CycleStats and CycleHistogram: the integer accumulators every in-simulation
// delay, matching size and occupancy statistic runs on.  Their merges must
// be exact in any order (the sharded engine folds per-shard tallies), and
// the histogram's one fixed layout must keep its stated error bound.

#include "mmr/sim/cycle_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "mmr/sim/rng.hpp"

namespace mmr {
namespace {

/// Delay-like samples: mostly small, with a long tail up to ~2^20 cycles.
std::vector<std::uint64_t> delays(std::uint64_t seed, std::size_t n) {
  Rng rng(seed, 0);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint64_t>(rng.exponential(40.0)) +
                  (i % 97 == 0 ? rng.uniform(1u << 20) : 0));
  return out;
}

TEST(CycleStats, EmptyReadsZero) {
  const CycleStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  CycleStats merged;
  merged.merge(s);
  EXPECT_EQ(merged, CycleStats{});
}

TEST(CycleHistogram, EmptyReadsZero) {
  const CycleHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.buckets().empty());
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (const double q : {0.0, 0.5, 1.0}) EXPECT_EQ(h.quantile(q), 0.0);
  CycleHistogram merged;
  merged.merge(h);
  EXPECT_EQ(merged, CycleHistogram{});
  // Merging into an empty histogram copies the other side exactly.
  CycleHistogram one;
  one.add(1234);
  merged.merge(one);
  EXPECT_EQ(merged, one);
}

TEST(CycleStats, KnownMoments) {
  CycleStats s;
  for (const std::uint64_t x : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.sum(), 40u);
  EXPECT_EQ(s.sum_sq(), 232u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 4.0);
  EXPECT_EQ(s.min(), 2u);
  EXPECT_EQ(s.max(), 9u);
}

TEST(CycleStats, VarianceMatchesTwoPassOnUnevenMeans) {
  const std::vector<std::uint64_t> data = delays(3, 5000);
  CycleStats s;
  double sum = 0.0;
  for (const std::uint64_t x : data) {
    s.add(x);
    sum += static_cast<double>(x);
  }
  const double mean = sum / static_cast<double>(data.size());
  double m2 = 0.0;
  for (const std::uint64_t x : data)
    m2 += (static_cast<double>(x) - mean) * (static_cast<double>(x) - mean);
  EXPECT_NEAR(s.mean() / mean, 1.0, 1e-12);
  EXPECT_NEAR(s.variance() / (m2 / static_cast<double>(data.size())), 1.0,
              1e-9);
}

// Three tallies merged in every order and grouping equal one pass over all
// samples, bit for bit — what lets a sharded run fold per-shard tallies.
TEST(CycleStats, ThreeWayMergeInAnyOrderEqualsOnePass) {
  const std::vector<std::uint64_t> data = delays(5, 3000);
  std::array<CycleStats, 3> parts;
  std::array<CycleHistogram, 3> hparts;
  CycleStats whole;
  CycleHistogram hwhole;
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Uneven split: part 0 gets the tail samples.
    const std::size_t p = i % 97 == 0 ? 0 : i % 3;
    parts[p].add(data[i]);
    hparts[p].add(data[i]);
    whole.add(data[i]);
    hwhole.add(data[i]);
  }
  std::array<std::size_t, 3> order = {0, 1, 2};
  do {
    CycleStats left;
    CycleHistogram hleft;
    for (const std::size_t p : order) {
      left.merge(parts[p]);
      hleft.merge(hparts[p]);
    }
    EXPECT_EQ(left, whole);
    EXPECT_EQ(hleft, hwhole);
    // The other grouping: a + (b + c).
    CycleStats inner = parts[order[1]];
    inner.merge(parts[order[2]]);
    CycleStats right = parts[order[0]];
    right.merge(inner);
    EXPECT_EQ(right, whole);
    CycleHistogram hinner = hparts[order[1]];
    hinner.merge(hparts[order[2]]);
    CycleHistogram hright = hparts[order[0]];
    hright.merge(hinner);
    EXPECT_EQ(hright, hwhole);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(CycleStats, SumOfSquaresHoldsFortyBitSamples) {
  constexpr std::uint64_t kBig = std::uint64_t{1} << 40;
  CycleStats s;
  for (int i = 0; i < 1000; ++i) s.add(kBig);
  s.add(kBig + 2);
  s.add(kBig - 2);
  // 1002 samples of ~2^40: Σx² ~ 2^90, far past 64 bits.
  const CycleWide big = kBig;
  EXPECT_EQ(s.sum(), big * 1002);
  EXPECT_EQ(s.sum_sq(), big * big * 1002 + 8);
  EXPECT_EQ(s.mean(), static_cast<double>(kBig));
  EXPECT_DOUBLE_EQ(s.variance(), 8.0 / 1002.0);
  EXPECT_EQ(s.min(), kBig - 2);
  EXPECT_EQ(s.max(), kBig + 2);

  CycleStats constant;
  for (int i = 0; i < 7; ++i) constant.add(kBig);
  EXPECT_EQ(constant.variance(), 0.0);
}

TEST(CycleHistogram, QuantileExtremesAreExactMinAndMax) {
  CycleHistogram h;
  for (const std::uint64_t x : delays(7, 2000)) h.add(x);
  EXPECT_EQ(h.quantile(0.0), static_cast<double>(h.min()));
  EXPECT_EQ(h.quantile(1.0), static_cast<double>(h.max()));
  // Out-of-range q clamps to the extremes.
  EXPECT_EQ(h.quantile(-1.0), static_cast<double>(h.min()));
  EXPECT_EQ(h.quantile(2.0), static_cast<double>(h.max()));

  CycleHistogram single;
  single.add(123'456);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0})
    EXPECT_EQ(single.quantile(q), 123'456.0) << q;
}

TEST(CycleHistogram, SmallValuesAreExact) {
  CycleHistogram h;
  for (std::uint64_t x = 0; x < CycleHistogram::kExact; ++x)
    for (int k = 0; k < 3; ++k) h.add(x);
  // Rank r of 48 samples is value r / 3.
  for (std::uint64_t r = 0; r < 48; ++r) {
    const double q = (static_cast<double>(r) + 0.5) / 47.0;
    EXPECT_EQ(h.quantile(q), static_cast<double>(r / 3)) << r;
  }
}

// The layout tiles [0, 2^64) with contiguous buckets, each at most 1/8 as
// wide as its lower edge.
TEST(CycleHistogram, LayoutTilesTheRangeWithinItsBound) {
  EXPECT_EQ(CycleHistogram::bucket_of(0), 0u);
  const std::size_t last = CycleHistogram::bucket_of(~std::uint64_t{0});
  EXPECT_EQ(last, 495u);
  EXPECT_EQ(CycleHistogram::bucket_hi(last), ~std::uint64_t{0});
  for (std::size_t b = 0; b <= last; ++b) {
    const std::uint64_t lo = CycleHistogram::bucket_lo(b);
    const std::uint64_t hi = CycleHistogram::bucket_hi(b);
    ASSERT_LE(lo, hi) << b;
    EXPECT_EQ(CycleHistogram::bucket_of(lo), b);
    EXPECT_EQ(CycleHistogram::bucket_of(hi), b);
    if (b > 0) {
      EXPECT_EQ(CycleHistogram::bucket_hi(b - 1) + 1, lo) << b;
    }
    const double half_width = static_cast<double>(hi - lo) / 2.0;
    EXPECT_LE(half_width,
              CycleHistogram::kRelativeError * static_cast<double>(lo))
        << b;
  }
}

TEST(CycleHistogram, QuantilesStayWithinTheRelativeBound) {
  std::vector<std::uint64_t> data = delays(11, 20000);
  CycleHistogram h;
  for (const std::uint64_t x : data) h.add(x);
  std::sort(data.begin(), data.end());
  double previous = 0.0;
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(data.size() - 1));
    const double exact = static_cast<double>(data[rank]);
    const double read = h.quantile(q);
    EXPECT_LE(std::abs(read - exact),
              CycleHistogram::kRelativeError * exact)
        << "q=" << q;
    EXPECT_GE(read, previous) << "quantiles must be monotone";
    previous = read;
  }
  EXPECT_LT(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LT(h.quantile(0.95), h.quantile(0.99));
}

TEST(CycleHistogram, StorageGrowsOnlyToTheLargestSample) {
  CycleHistogram h;
  h.add(3);
  EXPECT_EQ(h.buckets().size(), 4u);
  h.add(1000);
  EXPECT_EQ(h.buckets().size(), CycleHistogram::bucket_of(1000) + 1);
  h.add(~std::uint64_t{0});
  EXPECT_EQ(h.buckets().size(), 496u);
  EXPECT_EQ(h.quantile(1.0), static_cast<double>(~std::uint64_t{0}));
}

}  // namespace
}  // namespace mmr
