#include "mmr/router/link_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection) {
  Flit flit;
  flit.connection = connection;
  return flit;
}

/// Input buffers of two flits per VC, keyed by VC (qd=vc) or by output
/// (qd=voq); both go through the one LinkScheduler::select.
InputBuffer keyed_by_vc(std::uint32_t vcs) {
  return InputBuffer(vcs, vcs, 2, vcs * 2);
}
InputBuffer keyed_by_output(std::uint32_t outputs, std::uint32_t vcs) {
  return InputBuffer(outputs, vcs, 2, vcs * 2);
}

/// Builds a scheduler for one port with the given per-VC outputs and slot
/// reservations (IATs derived arbitrarily but consistently).
LinkScheduler make_scheduler(std::uint32_t levels,
                             std::vector<std::uint32_t> outputs,
                             std::vector<std::uint32_t> slots,
                             PriorityScheme scheme = PriorityScheme::kSiabp) {
  std::vector<QosParams> qos(outputs.size());
  for (std::size_t vc = 0; vc < outputs.size(); ++vc) {
    qos[vc].slots_per_round = slots[vc];
    qos[vc].iat_router_cycles = 1024.0 / slots[vc];
  }
  return LinkScheduler(/*input_port=*/0, levels, PriorityFunction(scheme),
                       /*phits_per_flit=*/256, std::move(outputs),
                       std::move(qos));
}

TEST(LinkScheduler, EmptyBufferYieldsNoCandidates) {
  LinkScheduler scheduler = make_scheduler(4, {0, 1, 2, 3}, {1, 1, 1, 1});
  InputBuffer vcm = keyed_by_vc(4);
  CandidateSet set(4, 4);
  scheduler.select(vcm, 100, set);
  EXPECT_TRUE(set.empty());
}

TEST(LinkScheduler, SelectsOccupiedVcsUpToLevels) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1, 2, 3}, {1, 2, 3, 4});
  InputBuffer vcm = keyed_by_vc(4);
  vcm.push(0, 0, make_flit(0), 0);
  vcm.push(1, 1, make_flit(1), 0);
  vcm.push(2, 2, make_flit(2), 0);
  CandidateSet set(4, 2);
  scheduler.select(vcm, 10, set);
  EXPECT_EQ(set.size(), 2u);  // capped at 2 levels
  set.check_invariants();
}

TEST(LinkScheduler, RanksByBiasedPriority) {
  // Same age for all, so SIABP ranks by slots_per_round.
  LinkScheduler scheduler = make_scheduler(4, {0, 1, 2, 3}, {1, 9, 3, 5});
  InputBuffer vcm = keyed_by_vc(4);
  for (std::uint32_t vc = 0; vc < 4; ++vc) vcm.push(vc, vc, make_flit(vc), 0);
  CandidateSet set(4, 4);
  scheduler.select(vcm, 16, set);
  ASSERT_EQ(set.size(), 4u);
  // Level 0 = VC 1 (slots 9), then VC 3 (5), VC 2 (3), VC 0 (1).
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 1))).vc, 3u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 2))).vc, 2u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 3))).vc, 0u);
}

TEST(LinkScheduler, OlderAgeWinsWhenBiasDiffers) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1}, {2, 2});
  InputBuffer vcm = keyed_by_vc(2);
  vcm.push(0, 0, make_flit(0), 5);  // younger
  vcm.push(1, 1, make_flit(1), 0);  // older
  // Ages 5 and 10 flit cycles = 1280 / 2560 router cycles: bit_width 11 vs
  // 12, so the older flit carries the higher biased priority.
  CandidateSet set(2, 2);
  scheduler.select(vcm, 10, set);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
}

TEST(LinkScheduler, ArrivalBreaksExactPriorityTies) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1}, {2, 2});
  InputBuffer vcm = keyed_by_vc(2);
  // Ages 2 and 3 flit cycles at now=5: 512 and 768 router cycles, both
  // bit_width 10 -> identical SIABP priority; the older arrival must rank
  // first (deterministic tie-break).
  vcm.push(0, 0, make_flit(0), 3);
  vcm.push(1, 1, make_flit(1), 2);
  CandidateSet set(2, 2);
  scheduler.select(vcm, 5, set);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).priority,
            set.at(static_cast<std::size_t>(set.index_of(0, 1))).priority);
}

TEST(LinkScheduler, CandidateCarriesRoutingAndPriority) {
  LinkScheduler scheduler = make_scheduler(1, {3, 2}, {4, 4});
  InputBuffer vcm = keyed_by_vc(2);
  vcm.push(0, 0, make_flit(0), 0);
  CandidateSet set(4, 1);
  scheduler.select(vcm, 4, set);
  ASSERT_EQ(set.size(), 1u);
  const Candidate& c = set.at(0);
  EXPECT_EQ(c.input, 0u);
  EXPECT_EQ(c.output, 3u);  // from output_of_vc
  EXPECT_EQ(c.vc, 0u);
  EXPECT_EQ(c.priority, scheduler.head_priority(vcm, 0, 4));
}

TEST(LinkScheduler, HeadPriorityAgesInRouterCycles) {
  LinkScheduler scheduler = make_scheduler(1, {0}, {3});
  InputBuffer vcm = keyed_by_vc(1);
  vcm.push(0, 0, make_flit(0), 100);
  // Age 0 flit cycles: priority = initial slots.
  EXPECT_EQ(scheduler.head_priority(vcm, 0, 100), 3u);
  // One flit cycle later: 256 router cycles -> shift = bit_width(256) = 9.
  EXPECT_EQ(scheduler.head_priority(vcm, 0, 101), 3u << 9);
}

TEST(LinkScheduler, IabpSchemeUsesIat) {
  LinkScheduler scheduler =
      make_scheduler(1, {0, 1}, {1, 8}, PriorityScheme::kIabp);
  InputBuffer vcm = keyed_by_vc(2);
  vcm.push(0, 0, make_flit(0), 0);
  vcm.push(1, 1, make_flit(1), 0);
  CandidateSet set(2, 1);
  scheduler.select(vcm, 8, set);
  // Same age; VC 1 has the shorter IAT (more slots) -> higher IABP ratio.
  EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, 0))).vc, 1u);
}

TEST(LinkScheduler, SelectionIsDeterministic) {
  LinkScheduler scheduler = make_scheduler(4, {0, 1, 2, 3}, {1, 1, 1, 1});
  InputBuffer vcm = keyed_by_vc(4);
  for (std::uint32_t vc = 0; vc < 4; ++vc) vcm.push(vc, vc, make_flit(vc), vc);
  CandidateSet a(4, 4);
  CandidateSet b(4, 4);
  scheduler.select(vcm, 10, a);
  scheduler.select(vcm, 10, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).vc, b.at(i).vc);
    EXPECT_EQ(a.at(i).priority, b.at(i).priority);
  }
}

TEST(LinkScheduler, ManyVcsSelectTopLOnly) {
  std::vector<std::uint32_t> outputs(64, 0);
  std::vector<std::uint32_t> slots(64);
  for (std::uint32_t vc = 0; vc < 64; ++vc) slots[vc] = vc + 1;
  LinkScheduler scheduler = make_scheduler(4, outputs, slots);
  InputBuffer vcm = keyed_by_vc(64);
  for (std::uint32_t vc = 0; vc < 64; ++vc) vcm.push(vc, vc, make_flit(vc), 0);
  CandidateSet set(4, 4);
  scheduler.select(vcm, 3, set);
  ASSERT_EQ(set.size(), 4u);
  // Top four slot counts: 64, 63, 62, 61.
  for (std::uint32_t level = 0; level < 4; ++level) {
    EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, level))).vc,
              63u - level);
  }
}

// The same heads keyed either way give the same candidates: a candidate's
// output is its VC's binding, and the ranking is a total order.
TEST(LinkScheduler, KeyingDoesNotChangeTheSelection) {
  LinkScheduler scheduler = make_scheduler(3, {2, 0, 3, 1}, {1, 4, 2, 4});
  InputBuffer by_vc = keyed_by_vc(4);
  InputBuffer by_output = keyed_by_output(4, 4);
  for (std::uint32_t vc = 0; vc < 4; ++vc) {
    for (Cycle at : {Cycle{vc % 2}, Cycle{5}}) {
      by_vc.push(vc, vc, make_flit(vc), at);
      by_output.push(scheduler.output_of(vc), vc, make_flit(vc), at);
    }
  }
  CandidateSet a(4, 3);
  CandidateSet b(4, 3);
  scheduler.select(by_vc, 9, a);
  scheduler.select(by_output, 9, b);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).vc, b.at(i).vc);
    EXPECT_EQ(a.at(i).output, b.at(i).output);
    EXPECT_EQ(a.at(i).level, b.at(i).level);
    EXPECT_EQ(a.at(i).priority, b.at(i).priority);
  }
}

// --- selection over heads keyed by output (qd=voq) --------------------------

TEST(LinkSchedulerVoq, RanksAcrossVoqHeads) {
  // VCs 0..3 bound to outputs 3, 2, 1, 0; equal ages, so SIABP ranks the
  // VOQ heads by their VC's slots_per_round.
  LinkScheduler scheduler = make_scheduler(4, {3, 2, 1, 0}, {2, 7, 4, 1});
  InputBuffer voq = keyed_by_output(4, 4);
  for (std::uint32_t vc = 0; vc < 4; ++vc)
    voq.push(scheduler.output_of(vc), vc, make_flit(vc), 0);
  CandidateSet set(4, 4);
  scheduler.select(voq, 6, set);
  ASSERT_EQ(set.size(), 4u);
  const std::uint32_t expected[] = {1, 2, 0, 3};  // slots 7, 4, 2, 1
  for (std::uint32_t level = 0; level < 4; ++level) {
    EXPECT_EQ(set.at(static_cast<std::size_t>(set.index_of(0, level))).vc,
              expected[level]);
  }
  set.check_invariants();
}

TEST(LinkSchedulerVoq, HeadVcBreaksExactTies) {
  // Same QoS and arrival cycle in two VOQs: the lower head VC ranks first,
  // whichever VOQ it sits in.
  LinkScheduler scheduler = make_scheduler(2, {3, 0, 0, 1}, {2, 2, 2, 2});
  InputBuffer voq = keyed_by_output(4, 4);
  voq.push(1, 3, make_flit(3), 5);
  voq.push(0, 1, make_flit(1), 5);
  CandidateSet set(4, 2);
  scheduler.select(voq, 9, set);
  ASSERT_EQ(set.size(), 2u);
  const Candidate& first = set.at(static_cast<std::size_t>(set.index_of(0, 0)));
  const Candidate& second =
      set.at(static_cast<std::size_t>(set.index_of(0, 1)));
  EXPECT_EQ(first.vc, 1u);
  EXPECT_EQ(second.vc, 3u);
  EXPECT_EQ(first.priority, second.priority);
}

TEST(LinkSchedulerVoq, EligibilityMaskGatesHeadVcAndOutput) {
  std::vector<QosParams> qos(4);
  LinkScheduler scheduler(/*input_port=*/2, /*levels=*/4,
                          PriorityFunction(PriorityScheme::kSiabp),
                          /*phits_per_flit=*/256, {0, 1, 3, 3},
                          std::move(qos));
  InputBuffer voq = keyed_by_output(4, 4);
  voq.push(0, 0, make_flit(0), 0);
  voq.push(1, 1, make_flit(1), 0);
  voq.push(3, 2, make_flit(2), 0);
  voq.push(3, 3, make_flit(3), 0);  // behind VC 2: its bit is never read
  const auto offered_vcs = [&](const EligibilityMask& mask) {
    CandidateSet set(4, 4);
    scheduler.select(voq, 3, set, &mask);
    std::vector<std::uint32_t> vcs;
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(set.at(i).input, 2u);
      vcs.push_back(set.at(i).vc);
    }
    std::sort(vcs.begin(), vcs.end());
    return vcs;
  };
  EligibilityMask mask(4, 4);
  EXPECT_EQ(offered_vcs(mask), (std::vector<std::uint32_t>{0, 1, 2}));
  mask.set_credit(2, 1, false);  // VC 1's next hop holds no credit
  mask.set_credit(2, 3, false);
  EXPECT_EQ(offered_vcs(mask), (std::vector<std::uint32_t>{0, 2}));
  mask.set_blocked(3, true);  // output 3's channel paused or down
  EXPECT_EQ(offered_vcs(mask), (std::vector<std::uint32_t>{0}));
  mask.set_blocked(3, false);
  mask.set_credit(2, 3, true);
  mask.set_credit(2, 2, false);  // VOQ 3's head is gated: VC 3 waits too
  EXPECT_EQ(offered_vcs(mask), (std::vector<std::uint32_t>{0}));
  mask.set_credit(2, 2, true);
  mask.set_credit(0, 1, false);  // another input's bit
  EXPECT_EQ(offered_vcs(mask), (std::vector<std::uint32_t>{0, 2}));
}

TEST(LinkSchedulerVoq, DemotedHeadUsesDemotedQos) {
  LinkScheduler scheduler = make_scheduler(2, {0, 1}, {8, 2});
  const QosParams demoted{1, 1024.0};
  scheduler.set_demoted_qos(demoted);
  InputBuffer voq = keyed_by_output(2, 2);
  Flit excess = make_flit(0);
  excess.demoted = true;
  voq.push(0, 0, excess, 0);
  voq.push(1, 1, make_flit(1), 0);
  CandidateSet set(2, 2);
  scheduler.select(voq, 2, set);
  ASSERT_EQ(set.size(), 2u);
  // VC 0 reserves 8 slots but its head is demoted to a one-slot claim, so
  // VC 1's two-slot head outranks it.
  const Candidate& first = set.at(static_cast<std::size_t>(set.index_of(0, 0)));
  const Candidate& second =
      set.at(static_cast<std::size_t>(set.index_of(0, 1)));
  EXPECT_EQ(first.vc, 1u);
  EXPECT_EQ(second.vc, 0u);
  const PriorityFunction siabp(PriorityScheme::kSiabp);
  EXPECT_EQ(second.priority, siabp(demoted, 2 * 256));
}

TEST(LinkSchedulerVoq, CandidateOutputIsItsVoqAndTheVcBinding) {
  LinkScheduler scheduler = make_scheduler(4, {2, 0, 3, 1}, {1, 2, 3, 4});
  scheduler.set_vc(1, 1, QosParams{5, 200.0});  // rebinding moves routing
  EXPECT_EQ(scheduler.output_of(1), 1u);
  InputBuffer voq = keyed_by_output(4, 4);
  for (std::uint32_t vc = 0; vc < 4; ++vc) {
    if (vc == 3) continue;
    voq.push(scheduler.output_of(vc), vc, make_flit(vc), vc);
  }
  CandidateSet set(4, 4);
  scheduler.select(voq, 8, set);
  ASSERT_EQ(set.size(), 3u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Candidate& c = set.at(i);
    EXPECT_EQ(c.output, scheduler.output_of(c.vc));
    EXPECT_EQ(voq.head(c.output).vc, c.vc);
  }
}

}  // namespace
}  // namespace mmr
