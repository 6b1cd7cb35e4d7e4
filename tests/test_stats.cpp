// JitterTracker: the integer |delta| stream behind per-connection frame
// jitter.

#include "mmr/sim/cycle_stats.hpp"

#include <gtest/gtest.h>

namespace mmr {
namespace {

TEST(JitterTracker, FirstSampleProducesNoDelta) {
  JitterTracker j;
  j.add(10);
  EXPECT_TRUE(j.deltas().empty());
  EXPECT_EQ(j.deltas().mean(), 0.0);
  EXPECT_EQ(j.deltas().max(), 0u);
}

TEST(JitterTracker, AbsoluteDeltas) {
  JitterTracker j;
  j.add(10);
  j.add(13);  // +3
  j.add(9);   // -4 -> 4
  j.add(9);   // 0
  EXPECT_EQ(j.deltas().count(), 3u);
  EXPECT_EQ(j.deltas().sum(), 7u);
  EXPECT_DOUBLE_EQ(j.deltas().mean(), (3.0 + 4.0 + 0.0) / 3.0);
  EXPECT_EQ(j.deltas().max(), 4u);
}

TEST(JitterTracker, ConstantStreamHasZeroJitter) {
  JitterTracker j;
  for (int i = 0; i < 10; ++i) j.add(42);
  EXPECT_EQ(j.deltas().count(), 9u);
  EXPECT_EQ(j.deltas().mean(), 0.0);
  EXPECT_EQ(j.deltas().max(), 0u);
}

}  // namespace
}  // namespace mmr
