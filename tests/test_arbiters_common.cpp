// Properties every switch arbiter must satisfy, checked across the whole
// registry with parameterized tests (TEST_P).

#include <gtest/gtest.h>

#include "arbiter_test_util.hpp"
#include "mmr/arbiter/factory.hpp"
#include "mmr/arbiter/maxmatch.hpp"
#include "mmr/arbiter/verify.hpp"

namespace mmr {
namespace {

class ArbiterProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
 protected:
  [[nodiscard]] std::string name() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::uint32_t ports() const { return std::get<1>(GetParam()); }
  [[nodiscard]] std::unique_ptr<SwitchArbiter> make() const {
    return make_arbiter(name(), ports(), Rng(0x5EED, 0xCAFE));
  }
};

TEST_P(ArbiterProperty, EmptyCandidateSetYieldsEmptyMatching) {
  auto arbiter = make();
  const CandidateSet set(ports(), 4);
  const Matching matching = arbiter->arbitrate(set);
  EXPECT_EQ(matching.size(), 0u);
  EXPECT_TRUE(check_matching(set, matching).valid);
}

TEST_P(ArbiterProperty, SingleCandidateIsGranted) {
  auto arbiter = make();
  CandidateSet set(ports(), 4);
  Candidate c;
  c.input = static_cast<std::uint16_t>(1 % ports());
  c.output = static_cast<std::uint16_t>(ports() - 1);
  c.level = 0;
  c.priority = 5;
  set.add(c);
  const Matching matching = arbiter->arbitrate(set);
  EXPECT_EQ(matching.size(), 1u);
  EXPECT_EQ(matching.output_of(c.input),
            static_cast<std::int32_t>(c.output));
  EXPECT_TRUE(check_matching(set, matching).valid);
}

TEST_P(ArbiterProperty, PermutationRequestsAreFullyMatched) {
  auto arbiter = make();
  for (std::uint32_t shift = 0; shift < ports(); ++shift) {
    const CandidateSet set = test::permutation_candidates(ports(), shift);
    const Matching matching = arbiter->arbitrate(set);
    EXPECT_EQ(matching.size(), ports()) << "shift " << shift;
    EXPECT_TRUE(check_matching(set, matching).valid);
  }
}

TEST_P(ArbiterProperty, RandomSetsProduceValidMatchings) {
  auto arbiter = make();
  Rng rng(0x1234, ports());
  for (int trial = 0; trial < 500; ++trial) {
    const CandidateSet set = test::random_candidates(ports(), 4, 0.8, rng);
    const Matching matching = arbiter->arbitrate(set);
    const MatchingCheck check = check_matching(set, matching);
    EXPECT_TRUE(check.valid) << check.problem << " (trial " << trial << ")";
  }
}

TEST_P(ArbiterProperty, NeverExceedsMaximumMatching) {
  auto arbiter = make();
  Rng rng(0x4321, ports());
  MaxMatchArbiter oracle(ports());
  for (int trial = 0; trial < 200; ++trial) {
    const CandidateSet set = test::random_candidates(ports(), 4, 0.8, rng);
    const Matching matching = arbiter->arbitrate(set);
    const Matching best = oracle.arbitrate(set);
    EXPECT_LE(matching.size(), best.size()) << "trial " << trial;
  }
}

TEST_P(ArbiterProperty, FullContentionGrantsExactlyOne) {
  auto arbiter = make();
  const CandidateSet set = test::contention_candidates(ports(), 0);
  const Matching matching = arbiter->arbitrate(set);
  EXPECT_EQ(matching.size(), 1u);
  EXPECT_TRUE(matching.output_matched(0));
  EXPECT_TRUE(check_matching(set, matching).valid);
}

TEST_P(ArbiterProperty, DeterministicGivenSameConstructionAndInputs) {
  auto a = make();
  auto b = make();
  Rng rng(0x7777, ports());
  for (int trial = 0; trial < 50; ++trial) {
    const CandidateSet set = test::random_candidates(ports(), 4, 0.7, rng);
    const Matching ma = a->arbitrate(set);
    const Matching mb = b->arbitrate(set);
    for (std::uint32_t input = 0; input < ports(); ++input) {
      EXPECT_EQ(ma.output_of(input), mb.output_of(input));
      EXPECT_EQ(ma.candidate_of(input), mb.candidate_of(input));
    }
  }
}

TEST_P(ArbiterProperty, NameMatchesRegistryName) {
  EXPECT_EQ(make()->name(), name());
}

std::vector<std::tuple<std::string, std::uint32_t>> all_params() {
  std::vector<std::tuple<std::string, std::uint32_t>> params;
  for (const std::string& name : arbiter_names()) {
    for (std::uint32_t ports : {2u, 4u, 8u, 16u}) {
      params.emplace_back(name, ports);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllArbiters, ArbiterProperty, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<ArbiterProperty::ParamType>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::to_string(std::get<1>(param_info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';  // gtest names must be identifiers
      }
      return name;
    });

TEST(ArbiterFactory, UnknownNameThrowsWithSuggestions) {
  try {
    (void)make_arbiter("nope", 4, Rng(1, 1));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("coa"), std::string::npos);
    EXPECT_NE(what.find("wfa"), std::string::npos);
  }
}

TEST(ArbiterFactory, RegistryListsEveryConstructibleArbiter) {
  for (const std::string& name : arbiter_names()) {
    EXPECT_NE(make_arbiter(name, 4, Rng(1, 2)), nullptr) << name;
  }
}

TEST(ArbiterFactory, RegistryHoldsOnlyTheArbitersTheSimulatorRuns) {
  // The scan references the differential tests compare against live in
  // tests/support and are not selectable with arbiter=.
  EXPECT_EQ(arbiter_names(),
            (std::vector<std::string>{"coa", "coa-np", "wfa", "wfa-fixed",
                                      "wwfa", "islip", "islip1", "pim",
                                      "pim1", "greedy", "maxmatch", "rr"}));
  for (const char* scan :
       {"coa-scan", "wfa-scan", "islip-scan", "pim-scan", "rr-scan"}) {
    EXPECT_THROW((void)make_arbiter(scan, 4, Rng(1, 2)),
                 std::invalid_argument)
        << scan;
  }
}

TEST(ArbiterFactory, IterationBudgetIsBitWidthPlusOne) {
  // bit_width(P) + 1 rounds for islip/pim; one round for the single-round
  // variants; none for the rest.
  EXPECT_EQ(arbiter_iterations("islip", 4), 4u);
  EXPECT_EQ(arbiter_iterations("islip", 8), 5u);
  EXPECT_EQ(arbiter_iterations("pim", 16), 6u);
  EXPECT_EQ(arbiter_iterations("pim", 5), 4u);
  EXPECT_EQ(arbiter_iterations("islip1", 16), 1u);
  EXPECT_EQ(arbiter_iterations("pim1", 16), 1u);
  EXPECT_EQ(arbiter_iterations("rr", 16), 1u);
  EXPECT_EQ(arbiter_iterations("coa", 16), 0u);
}

// Maximality: these arbiters leave no grantable request ungranted by
// construction (a defining property the paper leans on for WFA; COA also
// keeps matching until no request has both endpoints free).  iSLIP/PIM are
// only probabilistically maximal at their default iteration counts, so they
// are excluded.
class MaximalArbiter : public ::testing::TestWithParam<std::string> {};

TEST_P(MaximalArbiter, ProducesMaximalMatchings) {
  auto arbiter = make_arbiter(GetParam(), 8, Rng(0xFEED, 1));
  Rng rng(0x8888, 8);
  for (int trial = 0; trial < 300; ++trial) {
    const CandidateSet set = test::random_candidates(8, 4, 0.8, rng);
    const Matching matching = arbiter->arbitrate(set);
    EXPECT_TRUE(is_maximal(set, matching)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(MaximalByConstruction, MaximalArbiter,
                         ::testing::Values("coa", "coa-np", "wfa", "wfa-fixed",
                                           "wwfa", "greedy", "maxmatch"));

}  // namespace
}  // namespace mmr
