#include "mmr/arbiter/wavefront.hpp"

#include <gtest/gtest.h>

#include "arbiter_test_util.hpp"
#include "mmr/arbiter/verify.hpp"
#include "mmr/sim/time.hpp"
#include "support/scan_arbiters.hpp"

namespace mmr {
namespace {

Candidate make_candidate(std::uint32_t input, std::uint32_t output,
                         std::uint32_t level, Priority priority) {
  Candidate c;
  c.input = static_cast<std::uint16_t>(input);
  c.output = static_cast<std::uint16_t>(output);
  c.level = static_cast<std::uint8_t>(level);
  c.priority = priority;
  return c;
}

// ---------------------------------------------------------------------------
// Fixed-corner wavefront ("wfa-fixed", the bitset engine with its corner
// held at row 0): the corner bias the paper measures, preserved exactly as
// the pre-rotation "wfa" behaved.

TEST(FixedWaveFront, FavoursTopLeftCornerConsistently) {
  // With inputs 0 and 1 both requesting output 0, the cell closer to the
  // wave origin — (0,0) on diagonal 0 vs (1,0) on diagonal 1 — wins every
  // single time.  This positional bias is why the paper's WFA cannot honour
  // priorities, and (under sustained contention) why it starves high-index
  // inputs.
  WaveFrontArbiter arbiter(4, /*rotate=*/false);
  for (int trial = 0; trial < 20; ++trial) {
    const CandidateSet set = test::contention_candidates(4, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    EXPECT_EQ(matching.input_of(0), 0);
  }
}

TEST(FixedWaveFront, IgnoresPriorities) {
  // Input 3 has a colossal priority but input 0 sits on the earlier
  // diagonal: input 0 still wins output 0.
  WaveFrontArbiter arbiter(4, /*rotate=*/false);
  CandidateSet set(4, 1);
  set.add(make_candidate(0, 0, 0, 1));
  set.add(make_candidate(3, 0, 0, Priority{1} << 40));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.input_of(0), 0);
}

TEST(FixedWaveFront, StarvesHighIndexInputBeyondQosDeadline) {
  // The starvation regression the rotating corner fixes: under a sustained
  // hotspot (every input requesting output 0 every cycle, as when a paused
  // high-index port's backlog keeps re-requesting) the fixed corner serves
  // input 0 forever, so the highest-index input waits past the QoS deadline
  // — bench/incast_survival measured an Xoff pause held open for ~80k
  // cycles this way.
  constexpr std::uint32_t kPorts = 4;
  const auto cycles = static_cast<int>(kQosDeadlineCycles) + 50;
  WaveFrontArbiter arbiter(kPorts, /*rotate=*/false);
  int wins_high = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const CandidateSet set = test::contention_candidates(kPorts, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    ASSERT_TRUE(matching.output_matched(0));
    if (matching.input_of(0) == static_cast<std::int32_t>(kPorts - 1))
      ++wins_high;
  }
  // Input kPorts-1 never gets output 0: its wait exceeds kQosDeadlineCycles.
  EXPECT_EQ(wins_high, 0);
}

// ---------------------------------------------------------------------------
// Default rotating-corner engine ("wfa"), and both corner policies against
// the scan reference.

TEST(WaveFrontArbiter, CornerRowRotatesEveryArbitration) {
  WaveFrontArbiter arbiter(4);
  EXPECT_EQ(arbiter.next_corner_row(), 0u);
  (void)arbiter.arbitrate(CandidateSet(4, 1));
  EXPECT_EQ(arbiter.next_corner_row(), 1u);
  for (int i = 0; i < 3; ++i) (void)arbiter.arbitrate(CandidateSet(4, 1));
  EXPECT_EQ(arbiter.next_corner_row(), 0u);  // wraps mod ports
}

TEST(WaveFrontArbiter, BoundsWaitAtContestedOutput) {
  // The starvation fix: with every input requesting output 0 every cycle,
  // each input's wait between consecutive wins is bounded by P arbitrations
  // (the corner visits every row once per P cycles).
  constexpr std::uint32_t kPorts = 4;
  WaveFrontArbiter arbiter(kPorts);
  std::vector<int> last_win(kPorts, -1);
  int max_gap = 0;
  for (int cycle = 0; cycle < 400; ++cycle) {
    const CandidateSet set = test::contention_candidates(kPorts, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    ASSERT_TRUE(matching.output_matched(0));
    const auto winner =
        static_cast<std::size_t>(matching.input_of(0));
    if (last_win[winner] >= 0)
      max_gap = std::max(max_gap, cycle - last_win[winner]);
    last_win[winner] = cycle;
  }
  for (std::uint32_t in = 0; in < kPorts; ++in)
    EXPECT_GE(last_win[in], 0) << "input " << in << " never won";
  EXPECT_LE(max_gap, static_cast<int>(kPorts));
  EXPECT_LE(static_cast<double>(max_gap), kQosDeadlineCycles);
}

TEST(WaveFrontArbiter, SharesContestedOutputEqually) {
  WaveFrontArbiter arbiter(4);
  std::vector<int> wins(4, 0);
  for (int trial = 0; trial < 400; ++trial) {
    const CandidateSet set = test::contention_candidates(4, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    ASSERT_TRUE(matching.output_matched(0));
    ++wins[static_cast<std::size_t>(matching.input_of(0))];
  }
  for (int w : wins) EXPECT_EQ(w, 100);
}

TEST(WaveFrontArbiter, DiagonalCellsGrantInParallel) {
  // Requests on one anti-diagonal do not conflict: all are granted.
  WaveFrontArbiter arbiter(4);
  CandidateSet set(4, 1);
  for (std::uint32_t input = 0; input < 4; ++input) {
    set.add(make_candidate(input, 3 - input, 0, 10));
  }
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 4u);
}

TEST(WaveFrontArbiter, DeduplicatesSameInputOutputPairsToLowestLevel) {
  WaveFrontArbiter arbiter(4);
  CandidateSet set(4, 3);
  set.add(make_candidate(2, 1, 0, 100));
  set.add(make_candidate(2, 1, 1, 90));  // same pair, deeper level
  set.add(make_candidate(2, 1, 2, 80));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 1u);
  // The transmitted candidate is the level-0 one.
  const Candidate& granted =
      set.at(static_cast<std::size_t>(matching.candidate_of(2)));
  EXPECT_EQ(granted.level, 0u);
}

TEST(WaveFrontArbiter, FullRequestMatrixYieldsPerfectMatching) {
  WaveFrontArbiter arbiter(4);
  CandidateSet set(4, 4);
  for (std::uint32_t input = 0; input < 4; ++input) {
    for (std::uint32_t level = 0; level < 4; ++level) {
      set.add(make_candidate(input, (input + level) % 4, level,
                             100 - level));
    }
  }
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 4u);
}

TEST(WaveFrontArbiter, BitsetMatchesScanTwinAcrossWidths) {
  // The word-parallel engine must grant exactly as the scan twin of the
  // same corner policy, including above 64 ports where request rows span
  // multiple words, and keep the same corner row.
  for (const bool rotate : {true, false}) {
    for (const std::uint32_t ports : {3u, 16u, 64u, 65u, 128u}) {
      WaveFrontArbiter bitset(ports, rotate);
      WaveFrontScanArbiter scan(ports, rotate);
      Rng rng(0xF00D, ports);
      for (int trial = 0; trial < 40; ++trial) {
        const CandidateSet set = test::random_candidates(ports, 3, 0.5, rng);
        const Matching a = bitset.arbitrate(set);
        const Matching b = scan.arbitrate(set);
        for (std::uint32_t in = 0; in < ports; ++in) {
          ASSERT_EQ(a.output_of(in), b.output_of(in))
              << "rotate=" << rotate << " ports=" << ports
              << " trial=" << trial << " input=" << in;
          ASSERT_EQ(a.candidate_of(in), b.candidate_of(in));
        }
        ASSERT_EQ(bitset.next_corner_row(), scan.next_corner_row());
      }
    }
  }
}

TEST(FixedWaveFront, CornerStaysAtRowZero) {
  WaveFrontArbiter arbiter(4, /*rotate=*/false);
  EXPECT_STREQ(arbiter.name(), "wfa-fixed");
  for (int i = 0; i < 5; ++i) {
    (void)arbiter.arbitrate(CandidateSet(4, 1));
    EXPECT_EQ(arbiter.next_corner_row(), 0u);
  }
}

TEST(WaveFrontArbiter, MaximalOnDenseRequests) {
  WaveFrontArbiter arbiter(8);
  Rng rng(0x77, 0);
  for (int trial = 0; trial < 100; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.9, rng);
    const Matching matching = arbiter.arbitrate(set);
    EXPECT_TRUE(is_maximal(set, matching));
    EXPECT_TRUE(check_matching(set, matching).valid);
  }
}

// ---------------------------------------------------------------------------
// Wrapped variant (unchanged).

TEST(WrappedWaveFrontArbiter, StartDiagonalRotates) {
  WrappedWaveFrontArbiter arbiter(4);
  EXPECT_EQ(arbiter.next_start_diagonal(), 0u);
  (void)arbiter.arbitrate(CandidateSet(4, 1));
  EXPECT_EQ(arbiter.next_start_diagonal(), 1u);
  for (int i = 0; i < 3; ++i) (void)arbiter.arbitrate(CandidateSet(4, 1));
  EXPECT_EQ(arbiter.next_start_diagonal(), 0u);  // wraps mod ports
}

TEST(WrappedWaveFrontArbiter, RotationSharesContestedOutputFairly) {
  // Under full contention for output 0, the rotating diagonal must hand the
  // grant to every input equally often over a full rotation period.
  WrappedWaveFrontArbiter arbiter(4);
  std::vector<int> wins(4, 0);
  for (int trial = 0; trial < 400; ++trial) {
    const CandidateSet set = test::contention_candidates(4, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    ASSERT_TRUE(matching.output_matched(0));
    ++wins[static_cast<std::size_t>(matching.input_of(0))];
  }
  for (int w : wins) EXPECT_EQ(w, 100);
}

TEST(WrappedWaveFrontArbiter, MaximalOnDenseRequests) {
  WrappedWaveFrontArbiter arbiter(8);
  Rng rng(0x99, 0);
  for (int trial = 0; trial < 100; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.9, rng);
    const Matching matching = arbiter.arbitrate(set);
    EXPECT_TRUE(is_maximal(set, matching));
    EXPECT_TRUE(check_matching(set, matching).valid);
  }
}

}  // namespace
}  // namespace mmr
