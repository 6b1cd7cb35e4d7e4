// Behavioural tests of the Candidate-Order Arbiter against the paper's
// Section 4 description: port ordering by level then conflict count, and
// priority-based arbitration within an output.  CoaOracle is the seeded
// differential oracle against the scan twin (support/scan_arbiters.hpp):
//   test_coa [--gtest_*] [iterations=N] [seed=S]

#include "mmr/arbiter/candidate_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "arbiter_test_util.hpp"
#include "mmr/arbiter/verify.hpp"
#include "mmr/audit/generator.hpp"
#include "mmr/snapshot/walker.hpp"
#include "oracle_args.hpp"
#include "support/scan_arbiters.hpp"

namespace mmr {
namespace {

Candidate make_candidate(std::uint32_t input, std::uint32_t output,
                         std::uint32_t level, Priority priority,
                         std::uint32_t vc = 0) {
  Candidate c;
  c.input = static_cast<std::uint16_t>(input);
  c.output = static_cast<std::uint16_t>(output);
  c.level = static_cast<std::uint8_t>(level);
  c.priority = priority;
  c.vc = vc;
  return c;
}

TEST(CandidateOrderArbiter, HighestPriorityWinsOutputContention) {
  CandidateOrderArbiter arbiter(4, Rng(1, 1));
  // All four inputs want output 2; input 3 has the top priority.
  const CandidateSet set = test::contention_candidates(4, 2, /*base=*/10);
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 1u);
  EXPECT_EQ(matching.input_of(2), 3);
}

TEST(CandidateOrderArbiter, PriorityWinsRegardlessOfCandidateLevel) {
  // Input 0 offers (out 1, prio 100, level 0); input 1 offers level-0 to a
  // different output plus a level-1 request to out 1 with higher priority?
  // Levels are non-increasing per input, so craft: input 1 level-0 prio 500
  // to out 0, level-1 prio 400 to out 1.  Output 1's pending requests are
  // prio 100 (input 0) and prio 400 (input 1): the level-1 request wins the
  // arbitration phase because arbitration uses priority.
  CandidateOrderArbiter arbiter(4, Rng(2, 2));
  CandidateSet set(4, 2);
  set.add(make_candidate(0, 1, 0, 100));
  set.add(make_candidate(1, 0, 0, 500));
  set.add(make_candidate(1, 1, 1, 400));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_TRUE(check_matching(set, matching).valid);
  // Output ordering: out 0 has one level-0 conflict, out 1 has one level-0
  // conflict; out 1's level-0 is processed too.  Whatever the order, input 1
  // can only take one output, and input 0 must get the other:
  EXPECT_EQ(matching.size(), 2u);
  EXPECT_TRUE(matching.input_matched(0));
  EXPECT_TRUE(matching.input_matched(1));
}

TEST(CandidateOrderArbiter, OrdersOutputsByConflictCount) {
  // Paper: "ports with the most conflicts should be matched last since those
  // ports have the most opportunities to be matched".  At level 0, output 0
  // has one request (input 0) and output 1 has two (inputs 1, 2); input 0
  // also holds a high-priority level-1 request to output 1.  Matching the
  // low-conflict output 0 first gives it its only requester (input 0), and
  // output 1 still matches input 1 afterwards: a 2-matching.  The reverse
  // order would hand output 1 to input 0 (priority 90 beats 80) and strand
  // output 0 entirely.
  CandidateOrderArbiter arbiter(3, Rng(3, 3));
  CandidateSet set(3, 2);
  set.add(make_candidate(0, 0, 0, 100));
  set.add(make_candidate(0, 1, 1, 90));
  set.add(make_candidate(1, 1, 0, 80));
  set.add(make_candidate(2, 1, 0, 70));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 2u);
  EXPECT_EQ(matching.input_of(0), 0);  // low-conflict output matched first
  EXPECT_EQ(matching.input_of(1), 1);  // then the contested one by priority
}

TEST(CandidateOrderArbiter, LevelOneOutputsProcessedBeforeDeeperLevels) {
  // Output 2 only appears at level 1; output 0 appears at level 0.  The
  // level-0 output must be selected first: input 0's level-0 request (out 0)
  // is granted even though its level-1 request (out 2) has equal priority.
  CandidateOrderArbiter arbiter(4, Rng(4, 4));
  CandidateSet set(4, 2);
  set.add(make_candidate(0, 0, 0, 50));
  set.add(make_candidate(0, 2, 1, 50));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 1u);
  EXPECT_EQ(matching.output_of(0), 0);
}

TEST(CandidateOrderArbiter, SecondLevelCandidateUsedWhenFirstLoses) {
  // Inputs 0 and 1 both have level-0 requests to output 0; input 0 has the
  // higher priority.  Input 1's level-1 candidate targets output 1 and must
  // be granted after it loses output 0.
  CandidateOrderArbiter arbiter(2, Rng(5, 5));
  CandidateSet set(2, 2);
  set.add(make_candidate(0, 0, 0, 100));
  set.add(make_candidate(1, 0, 0, 50));
  set.add(make_candidate(1, 1, 1, 40));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 2u);
  EXPECT_EQ(matching.output_of(0), 0);
  EXPECT_EQ(matching.output_of(1), 1);
}

TEST(CandidateOrderArbiter, RandomTieBreaksAreNotConstant) {
  // Two equal-priority requesters: over many arbitrations both must win
  // sometimes (ties broken randomly, not positionally).
  CandidateOrderArbiter arbiter(2, Rng(6, 6));
  int wins0 = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const CandidateSet set = test::contention_candidates(2, 0, /*base=*/7);
    // contention_candidates gives distinct priorities; rebuild with equal.
    CandidateSet equal(2, 1);
    Candidate c0 = set.at(0);
    Candidate c1 = set.at(1);
    c0.priority = c1.priority = 7;
    equal.add(c0);
    equal.add(c1);
    const Matching matching = arbiter.arbitrate(equal);
    if (matching.input_of(0) == 0) ++wins0;
  }
  EXPECT_GT(wins0, kTrials / 10);
  EXPECT_LT(wins0, kTrials * 9 / 10);
}

TEST(CandidateOrderArbiter, NoPriorityVariantIgnoresPriorities) {
  // coa-np keeps the port ordering but picks winners randomly: over many
  // trials the colossal-priority input must NOT always win.
  CandidateOrderArbiter arbiter(4, Rng(8, 8), /*use_priority=*/false);
  int wins_high = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const CandidateSet set = test::contention_candidates(4, 0, 1000);
    const Matching matching = arbiter.arbitrate(set);
    if (matching.input_of(0) == 3) ++wins_high;  // input 3 = top priority
  }
  EXPECT_GT(wins_high, kTrials / 10);
  EXPECT_LT(wins_high, kTrials / 2);
  EXPECT_STREQ(arbiter.name(), "coa-np");
}

TEST(CandidateOrderArbiter, NoPriorityVariantKeepsConflictOrdering) {
  // Same scenario as OrdersOutputsByConflictCount: the ordering decision is
  // priority-independent, so coa-np must still find the 2-matching.
  CandidateOrderArbiter arbiter(3, Rng(9, 9), /*use_priority=*/false);
  CandidateSet set(3, 2);
  set.add(make_candidate(0, 0, 0, 100));
  set.add(make_candidate(0, 1, 1, 90));
  set.add(make_candidate(1, 1, 0, 80));
  set.add(make_candidate(2, 1, 0, 70));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_EQ(matching.size(), 2u);
  EXPECT_EQ(matching.input_of(0), 0);
}

TEST(CandidateOrderArbiter, MatchesPaperExampleShape) {
  // A 4x4 scenario exercising the full selection-matrix walk: every output
  // requested, mixed levels; result must be a perfect conflict-free match.
  CandidateOrderArbiter arbiter(4, Rng(7, 7));
  CandidateSet set(4, 2);
  set.add(make_candidate(0, 1, 0, 90));
  set.add(make_candidate(0, 2, 1, 80));
  set.add(make_candidate(1, 1, 0, 70));
  set.add(make_candidate(1, 3, 1, 60));
  set.add(make_candidate(2, 0, 0, 50));
  set.add(make_candidate(2, 1, 1, 40));
  set.add(make_candidate(3, 2, 0, 95));
  set.add(make_candidate(3, 0, 1, 30));
  const Matching matching = arbiter.arbitrate(set);
  EXPECT_TRUE(check_matching(set, matching).valid);
  EXPECT_EQ(matching.size(), 4u);
  // Output 1 contested by inputs 0 (90) and 1 (70) at level 0: 0 wins.
  EXPECT_EQ(matching.input_of(1), 0);
  // Output 2's level-0 requester is input 3.
  EXPECT_EQ(matching.input_of(2), 3);
  // Remaining: input 1 -> 3 (level 1), input 2 -> 0 (level 0).
  EXPECT_EQ(matching.input_of(3), 1);
  EXPECT_EQ(matching.input_of(0), 2);
}

// The word-mask COA is a pure reimplementation of the reference scan-loop
// COA ("coa-scan"): both must consume the identical RNG draw sequence and
// therefore produce bit-identical matchings, candidate index included, on
// every candidate set.  This is what lets the optimized arbiter replace the
// original without perturbing golden-seed simulation metrics.  Levels run
// up to the 64-bit level mask's last bit (deep chains at 64); port counts
// put outputs either side of the active mask's word boundaries (63/64/65,
// 128); both the priority grant and the coa-np ablation are compared.
TEST(CandidateOrderArbiter, BucketedMatchesReferenceScanExactly) {
  for (const bool use_priority : {true, false}) {
    for (const std::uint32_t levels : {1u, 2u, 4u, 64u}) {
      for (const std::uint32_t ports :
           {2u, 4u, 5u, 8u, 16u, 63u, 64u, 65u, 128u}) {
        for (const audit::LoadProfile profile : audit::all_profiles()) {
          const std::uint64_t seed = 0xC0A0 + ports;
          CandidateOrderArbiter fast(ports, Rng(seed, 7), use_priority);
          CandidateOrderScanArbiter scan(ports, Rng(seed, 7), use_priority);
          audit::GeneratorOptions opt;
          opt.ports = ports;
          opt.levels = levels;
          opt.profile = profile;
          if (levels == 64) opt.fill = 0.99;  // chains reach the top bits
          Rng gen(0x5EED + ports, static_cast<std::uint64_t>(profile));
          Matching a(ports);
          Matching b(ports);
          for (int step = 0; step < 50; ++step) {
            CandidateSet set(ports, opt.levels);
            for (const Candidate& c : audit::generate_step(gen, opt)) {
              set.add(c);
            }
            fast.arbitrate_into(set, a);
            scan.arbitrate_into(set, b);
            ASSERT_EQ(a.size(), b.size());
            for (std::uint32_t input = 0; input < ports; ++input) {
              ASSERT_EQ(a.output_of(input), b.output_of(input))
                  << "profile=" << audit::profile_name(profile)
                  << " ports=" << ports << " levels=" << levels
                  << " priority=" << use_priority << " step=" << step;
              ASSERT_EQ(a.candidate_of(input), b.candidate_of(input));
            }
          }
        }
      }
    }
  }
}

TEST(CandidateOrderArbiter, ScratchIsCleanAcrossLevelCounts) {
  // Setup touches only the received candidates, so each call must leave
  // the scratch zeroed for the next — also when consecutive sets differ in
  // level count (the conflict table's stride) and in the outputs they use.
  const std::uint32_t ports = 70;
  CandidateOrderArbiter fast(ports, Rng(3, 3));
  CandidateOrderScanArbiter scan(ports, Rng(3, 3));
  Rng gen(11, 1);
  Matching a(ports);
  Matching b(ports);
  const std::array<std::uint32_t, 5> level_counts = {64, 2, 1, 4, 33};
  const auto& profiles = audit::all_profiles();
  for (std::size_t step = 0; step < 40; ++step) {
    audit::GeneratorOptions opt;
    opt.ports = ports;
    opt.levels = level_counts[step % level_counts.size()];
    opt.fill = opt.levels > 4 ? 0.99 : 0.6;
    opt.profile = profiles[step % profiles.size()];
    CandidateSet set(ports, opt.levels);
    for (const Candidate& c : audit::generate_step(gen, opt)) set.add(c);
    fast.arbitrate_into(set, a);
    scan.arbitrate_into(set, b);
    for (std::uint32_t input = 0; input < ports; ++input) {
      ASSERT_EQ(a.output_of(input), b.output_of(input)) << "step " << step;
      ASSERT_EQ(a.candidate_of(input), b.candidate_of(input));
    }
  }
}

/// Hash of an arbiter's checkpoint walk.  COA and its scan twin walk their
/// RNG state and nothing else, so equal hashes mean equal RNG states.
std::uint64_t rng_state_hash(SwitchArbiter& arbiter) {
  snapshot::HashWalker hasher;
  arbiter.snap(hasher);
  return hasher.digest();
}

// Differential oracle: `coa` and `coa-np` against the scan twin, which
// shares their RNG stream, so every grant must name the same candidate and
// both RNG states must agree after every call (a spare or missing draw
// that happens not to change this call's grants still fails).
// Each port count keeps one arbiter of each kind across all its calls while
// the level count (1, 4 or 64) changes from call to call, and the
// candidates of a set are added in one of three orders: as generated (input
// by input), level by level, or inputs shuffled.  Wider shapes get fewer
// sets, so `iterations` buys the same work at every port count.
void run_coa_oracle(std::uint32_t ports) {
  SCOPED_TRACE("ports=" + std::to_string(ports));
  Rng rng(oracle::args().seed, ports);
  const std::uint64_t seed = rng.next();
  CandidateOrderArbiter fast(ports, Rng(seed, 1));
  CandidateOrderScanArbiter scan(ports, Rng(seed, 1));
  CandidateOrderArbiter fast_np(ports, Rng(seed, 2), /*use_priority=*/false);
  CandidateOrderScanArbiter scan_np(ports, Rng(seed, 2),
                                    /*use_priority=*/false);
  const std::array<std::uint32_t, 3> level_counts = {1, 4, 64};
  const auto& profiles = audit::all_profiles();
  Matching a(ports);
  Matching b(ports);
  const std::uint64_t sets =
      std::max<std::uint64_t>(16, oracle::args().iterations * 16 / ports);
  std::uint64_t grants = 0;
  std::uint64_t deep = 0;  // sets with a candidate at level 32 or deeper
  for (std::uint64_t step = 0; step < sets; ++step) {
    audit::GeneratorOptions opt;
    opt.ports = ports;
    opt.levels = level_counts[rng.uniform(level_counts.size())];
    opt.fill = opt.levels == 64 && rng.chance(0.25) ? 0.99 : 0.6;
    opt.profile = profiles[rng.uniform(profiles.size())];
    std::vector<Candidate> added = audit::generate_step(rng, opt);
    // Levels of one input stay in order; the inputs are interleaved.
    std::vector<std::uint64_t> rank(ports);
    for (std::uint32_t input = 0; input < ports; ++input)
      rank[input] = input;
    switch (rng.uniform(3)) {
      case 0:
        break;
      case 1:
        std::fill(rank.begin(), rank.end(), 0);  // level by level
        break;
      default:
        for (std::uint64_t& r : rank) r = rng.next();
        break;
    }
    std::stable_sort(added.begin(), added.end(),
                     [&rank](const Candidate& x, const Candidate& y) {
                       if (rank[x.input] != rank[y.input])
                         return rank[x.input] < rank[y.input];
                       return x.level < y.level;
                     });
    CandidateSet set(ports, opt.levels);
    for (const Candidate& c : added) {
      set.add(c);
      if (c.level >= 32) ++deep;
    }
    for (const bool use_priority : {true, false}) {
      CandidateOrderArbiter& fast_one = use_priority ? fast : fast_np;
      CandidateOrderScanArbiter& scan_one = use_priority ? scan : scan_np;
      fast_one.arbitrate_into(set, a);
      scan_one.arbitrate_into(set, b);
      for (std::uint32_t input = 0; input < ports; ++input) {
        ASSERT_EQ(a.candidate_of(input), b.candidate_of(input))
            << "step " << step << " input " << input << " levels "
            << opt.levels << " priority " << use_priority;
      }
      ASSERT_EQ(rng_state_hash(fast_one), rng_state_hash(scan_one))
          << "step " << step << " levels " << opt.levels << " priority "
          << use_priority << ": RNG streams diverged";
      grants += a.size();
    }
  }
  EXPECT_GT(grants, sets);
  if (sets >= 100) {
    EXPECT_GT(deep, 0u) << "no set reached level 32";
  }
}

TEST(CoaOracle, MatchesTheScanTwin) {
  for (const std::uint32_t ports : {4u, 16u, 65u, 128u}) {
    run_coa_oracle(ports);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::oracle::main(argc, argv); }
