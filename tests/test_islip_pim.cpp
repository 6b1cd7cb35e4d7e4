#include <gtest/gtest.h>

#include "arbiter_test_util.hpp"
#include "mmr/arbiter/factory.hpp"
#include "mmr/arbiter/islip.hpp"
#include "mmr/arbiter/pim.hpp"
#include "mmr/arbiter/verify.hpp"

namespace mmr {
namespace {

TEST(Islip, FactoryBuildsAtTheRegisteredBudget) {
  // The constructor takes the budget as given; make_arbiter passes the
  // registered one (bit_width(P) + 1).
  const auto islip = make_arbiter("islip", 16, Rng(1, 1));
  EXPECT_EQ(dynamic_cast<const IslipArbiter&>(*islip).iterations(), 6u);
  const auto islip1 = make_arbiter("islip1", 16, Rng(1, 1));
  EXPECT_EQ(dynamic_cast<const IslipArbiter&>(*islip1).iterations(), 1u);
  EXPECT_EQ(IslipArbiter(8, 2).iterations(), 2u);
}

TEST(Islip, PointerDesynchronisationUnderFullContention) {
  // Classic iSLIP property: under persistent identical requests the
  // pointers desynchronise and the contested output round-robins across
  // inputs — no input is served twice before the others are served once
  // (after the first rotation).
  IslipArbiter arbiter(4, arbiter_iterations("islip", 4));
  std::vector<int> wins(4, 0);
  for (int trial = 0; trial < 400; ++trial) {
    const CandidateSet set = test::contention_candidates(4, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    ASSERT_TRUE(matching.output_matched(0));
    ++wins[static_cast<std::size_t>(matching.input_of(0))];
  }
  for (int w : wins) EXPECT_EQ(w, 100);
}

TEST(Islip, SingleIterationStillValid) {
  IslipArbiter arbiter(8, 1);
  Rng rng(0x51, 0);
  for (int trial = 0; trial < 200; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.8, rng);
    const Matching matching = arbiter.arbitrate(set);
    EXPECT_TRUE(check_matching(set, matching).valid);
  }
}

TEST(Islip, MoreIterationsNeverShrinkTheMatching) {
  Rng rng(0x52, 0);
  for (int trial = 0; trial < 100; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.8, rng);
    IslipArbiter one(8, 1);
    IslipArbiter many(8, 8);
    EXPECT_LE(one.arbitrate(set).size(), many.arbitrate(set).size());
  }
}

TEST(Islip, PermutationGrantedInOneIteration) {
  IslipArbiter arbiter(8, 1);
  const CandidateSet set = test::permutation_candidates(8, 3);
  EXPECT_EQ(arbiter.arbitrate(set).size(), 8u);
}

TEST(Pim, FactoryBuildsAtTheRegisteredBudget) {
  const auto pim = make_arbiter("pim", 4, Rng(1, 1));
  EXPECT_EQ(dynamic_cast<const PimArbiter&>(*pim).iterations(), 4u);
  EXPECT_EQ(PimArbiter(8, Rng(1, 1), 3).iterations(), 3u);
}

TEST(Pim, GrantsAreRandomisedAcrossInputs) {
  PimArbiter arbiter(4, Rng(0x99, 7), arbiter_iterations("pim", 4));
  std::vector<int> wins(4, 0);
  for (int trial = 0; trial < 1000; ++trial) {
    const CandidateSet set = test::contention_candidates(4, 0, 10);
    const Matching matching = arbiter.arbitrate(set);
    ASSERT_TRUE(matching.output_matched(0));
    ++wins[static_cast<std::size_t>(matching.input_of(0))];
  }
  for (int w : wins) {
    EXPECT_GT(w, 150);  // ~250 expected; far from starvation
    EXPECT_LT(w, 350);
  }
}

TEST(Pim, ConvergesNearMaximalWithIterations) {
  // At the factory's budget PIM should almost always reach a maximal match
  // on dense requests (statistical bound, not exact).
  PimArbiter arbiter(8, Rng(0x77, 7), arbiter_iterations("pim", 8));
  Rng rng(0x53, 0);
  int maximal = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.9, rng);
    const Matching matching = arbiter.arbitrate(set);
    EXPECT_TRUE(check_matching(set, matching).valid);
    if (is_maximal(set, matching)) ++maximal;
  }
  EXPECT_GT(maximal, kTrials * 8 / 10);
}

TEST(Pim, SingleIterationWeakerThanConverged) {
  Rng rng(0x54, 0);
  PimArbiter one(8, Rng(0xA, 1), 1);
  PimArbiter many(8, Rng(0xB, 2), 6);
  std::uint64_t size_one = 0;
  std::uint64_t size_many = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.9, rng);
    size_one += one.arbitrate(set).size();
    size_many += many.arbitrate(set).size();
  }
  EXPECT_LT(size_one, size_many);
}

}  // namespace
}  // namespace mmr
