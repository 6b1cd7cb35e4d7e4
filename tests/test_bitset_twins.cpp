// Bit-identity proofs for the word-parallel bitset / SoA arbitration
// engines: every runtime arbiter in the twin table (support/twins.hpp) must
// grant exactly like its scan reference — same (input, output) pairing,
// same candidate index — over identical candidate sequences and RNG seeds,
// across every load profile and port widths from tiny through multi-word
// (>64).  The heavier soak lives in bench/audit_soak (tier-2 ctest target
// audit_soak_wide); this suite is the fast tier-1 slice.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mmr/arbiter/bitreq.hpp"
#include "mmr/arbiter/factory.hpp"
#include "support/audit/harness.hpp"
#include "support/twins.hpp"

namespace mmr {
namespace {

TEST(BitsetTwins, TwinTableCoversTheEnginesWithAScanReference) {
  // The runtime side of every twin is a registered name (so a replayed
  // CaseSpec can build it); the reference side is not — the simulator
  // ships only the arbiters it runs.
  const auto& names = arbiter_names();
  std::vector<std::string> covered;
  for (const test_support::Twin& twin : test_support::twins()) {
    EXPECT_NE(std::find(names.begin(), names.end(), twin.arbiter),
              names.end())
        << twin.arbiter;
    EXPECT_EQ(std::find(names.begin(), names.end(), twin.reference),
              names.end())
        << twin.reference;
    // The reference reports its own label, so a mixed-up builder shows.
    EXPECT_STREQ(twin.build(8, Rng(1, 0))->name(), twin.reference);
    covered.emplace_back(twin.arbiter);
  }
  EXPECT_EQ(covered, (std::vector<std::string>{"coa", "wfa", "wfa-fixed",
                                               "islip", "pim", "rr"}));
}

TEST(BitsetTwins, BitIdenticalAcrossProfilesAndWidths) {
  // Ports straddle the word boundary on purpose: 5 (partial word), 63/64
  // (one word, last bit unused / exactly full), 65 (one bit into word 1),
  // 127/128 (the same boundary again on multi-word rows).  Levels run from
  // one candidate per input up to the 64 that fill COA's level mask.
  audit::TwinDiffOptions options;
  options.ports = {2, 5, 8, 16, 32, 63, 64, 65, 127, 128};
  options.seeds = 8;
  options.steps = 20;
  options.levels = {1, 2, 3, 4, 64};
  const audit::TwinDiffReport report = run_twin_diff(options);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.cases, 0u);
}

TEST(BitsetTwins, WfaFixedPreservesLegacyBehaviourNotRotation) {
  // "wfa-fixed" is the pre-rotation arbiter: under full contention for one
  // output it must keep granting input 0 forever — i.e. it must NOT match
  // the rotating "wfa" stream.  (Guards against accidentally registering
  // the rotating engine under the legacy name.)
  const std::uint32_t ports = 4;
  auto fixed = make_arbiter("wfa-fixed", ports, Rng(1, 0));
  auto rotating = make_arbiter("wfa", ports, Rng(1, 0));
  bool diverged = false;
  for (int cycle = 0; cycle < 8; ++cycle) {
    CandidateSet set(ports, 1);
    for (std::uint32_t in = 0; in < ports; ++in) {
      Candidate c;
      c.input = static_cast<std::uint16_t>(in);
      c.output = 0;
      c.level = 0;
      c.priority = 10;
      set.add(c);
    }
    const Matching mf = fixed->arbitrate(set);
    const Matching mr = rotating->arbitrate(set);
    EXPECT_EQ(mf.input_of(0), 0) << "wfa-fixed must stay corner-biased";
    if (mr.input_of(0) != mf.input_of(0)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "rotating wfa never left the corner";
}

TEST(BitRequestMatrix, CyclicFirstBitSearch) {
  std::uint64_t words[2] = {0, 0};
  EXPECT_EQ(bits_first_cyclic(words, 2, 0), -1);
  bits_set(words, 3);
  bits_set(words, 70);
  EXPECT_EQ(bits_first_cyclic(words, 2, 0), 3);
  EXPECT_EQ(bits_first_cyclic(words, 2, 3), 3);
  EXPECT_EQ(bits_first_cyclic(words, 2, 4), 70);   // scan into word 1
  EXPECT_EQ(bits_first_cyclic(words, 2, 71), 3);   // wraps around
  bits_clear(words, 3);
  EXPECT_EQ(bits_first_cyclic(words, 2, 71), 70);  // wraps to own word
}

TEST(BitRequestMatrix, CyclicSearchAtWordBoundaries) {
  // The exact bits a P=63/64/65 port count exercises: the last bit of word
  // 0 and the first bit of word 1.
  std::uint64_t words[2] = {0, 0};
  bits_set(words, 63);
  EXPECT_EQ(bits_first_cyclic(words, 1, 0), 63);   // single-word row
  EXPECT_EQ(bits_first_cyclic(words, 1, 63), 63);  // start on the last bit
  EXPECT_EQ(bits_first_cyclic(words, 2, 0), 63);
  bits_set(words, 64);
  EXPECT_EQ(bits_first_cyclic(words, 2, 64), 64);  // start on word 1's bit 0
  EXPECT_EQ(bits_first_cyclic(words, 2, 65), 63);  // wrap across both words
  bits_clear(words, 63);
  bits_clear(words, 64);
  EXPECT_EQ(bits_first_cyclic(words, 2, 63), -1);
}

TEST(BitRequestMatrix, CollapsesLevelsAndTracksLiveMasks) {
  CandidateSet set(70, 3);  // multi-word width
  const auto add = [&](std::uint32_t in, std::uint32_t out,
                       std::uint32_t level) {
    Candidate c;
    c.input = static_cast<std::uint16_t>(in);
    c.output = static_cast<std::uint16_t>(out);
    c.level = static_cast<std::uint8_t>(level);
    c.priority = 1;
    set.add(c);
  };
  add(2, 69, 0);
  add(67, 5, 0);  // levels must be contiguous per input, so seed level 0
  add(67, 1, 1);
  add(67, 1, 2);  // same pair, deeper level: must collapse to level 1
  BitRequestMatrix matrix;
  matrix.build(set);
  EXPECT_EQ(matrix.ports(), 70u);
  EXPECT_EQ(matrix.words(), 2u);
  EXPECT_TRUE(bits_test(matrix.outputs_of(2), 69));
  EXPECT_TRUE(bits_test(matrix.inputs_of(69), 2));
  EXPECT_TRUE(bits_test(matrix.inputs_of(1), 67));
  EXPECT_TRUE(bits_test(matrix.live_inputs(), 67));
  EXPECT_TRUE(bits_test(matrix.live_outputs(), 69));
  EXPECT_FALSE(bits_test(matrix.live_outputs(), 0));
  EXPECT_EQ(set.at(static_cast<std::size_t>(matrix.cell(67, 1))).level, 1u);

  // Rebuild from a different set: the sparse clear must leave no stale
  // cells or bits behind.
  CandidateSet next(70, 3);
  {
    Candidate c;
    c.input = 5;
    c.output = 6;
    c.level = 0;
    c.priority = 1;
    next.add(c);
  }
  matrix.build(next);
  EXPECT_EQ(matrix.cell(2, 69), -1);
  EXPECT_EQ(matrix.cell(67, 1), -1);
  EXPECT_FALSE(bits_test(matrix.live_inputs(), 67));
  EXPECT_TRUE(bits_test(matrix.outputs_of(5), 6));
  EXPECT_EQ(set.at(0).input, 2);  // original set untouched
}

}  // namespace
}  // namespace mmr
