#include "mmr/router/vcm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "mmr/sim/rng.hpp"
#include "oracle_args.hpp"

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection, std::uint64_t seq) {
  Flit flit;
  flit.connection = connection;
  flit.seq = seq;
  return flit;
}

TEST(Vcm, StartsEmpty) {
  VirtualChannelMemory vcm(8, 2);
  EXPECT_EQ(vcm.vcs(), 8u);
  EXPECT_EQ(vcm.capacity_per_vc(), 2u);
  EXPECT_EQ(vcm.total_flits(), 0u);
  EXPECT_TRUE(vcm.occupied_vcs().empty());
  for (std::uint32_t vc = 0; vc < 8; ++vc) {
    EXPECT_TRUE(vcm.empty(vc));
    EXPECT_TRUE(vcm.can_accept(vc));
    EXPECT_EQ(vcm.occupancy(vc), 0u);
  }
  vcm.check_invariants();
}

TEST(Vcm, FifoOrderPerVc) {
  VirtualChannelMemory vcm(4, 4);
  vcm.push(2, make_flit(9, 0), 10);
  vcm.push(2, make_flit(9, 1), 11);
  vcm.push(2, make_flit(9, 2), 12);
  EXPECT_EQ(vcm.head(2).seq, 0u);
  EXPECT_EQ(vcm.pop(2).seq, 0u);
  EXPECT_EQ(vcm.pop(2).seq, 1u);
  EXPECT_EQ(vcm.pop(2).seq, 2u);
  EXPECT_TRUE(vcm.empty(2));
  vcm.check_invariants();
}

TEST(Vcm, HeadArrivalTracksQueueEpoch) {
  VirtualChannelMemory vcm(4, 4);
  vcm.push(1, make_flit(0, 0), 100);
  vcm.push(1, make_flit(0, 1), 120);
  EXPECT_EQ(vcm.head_arrival(1), 100u);
  (void)vcm.pop(1);
  EXPECT_EQ(vcm.head_arrival(1), 120u);
}

TEST(Vcm, CapacityEnforced) {
  VirtualChannelMemory vcm(4, 2);
  vcm.push(0, make_flit(0, 0), 0);
  EXPECT_TRUE(vcm.can_accept(0));
  vcm.push(0, make_flit(0, 1), 1);
  EXPECT_FALSE(vcm.can_accept(0));
  EXPECT_TRUE(vcm.can_accept(1));  // other VCs unaffected
}

TEST(VcmDeath, OverflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualChannelMemory vcm(2, 1);
  vcm.push(0, make_flit(0, 0), 0);
  EXPECT_DEATH(vcm.push(0, make_flit(0, 1), 1), "credit");
}

TEST(VcmDeath, PopEmptyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualChannelMemory vcm(2, 1);
  EXPECT_DEATH((void)vcm.pop(0), "empty");
}

TEST(Vcm, OccupiedListTracksMembership) {
  VirtualChannelMemory vcm(8, 2);
  vcm.push(3, make_flit(0, 0), 0);
  vcm.push(5, make_flit(1, 0), 0);
  vcm.push(3, make_flit(0, 1), 1);
  auto occupied = vcm.occupied_vcs();
  std::sort(occupied.begin(), occupied.end());
  EXPECT_EQ(occupied, (std::vector<std::uint32_t>{3, 5}));
  (void)vcm.pop(3);
  (void)vcm.pop(3);  // VC 3 now empty
  occupied = vcm.occupied_vcs();
  EXPECT_EQ(occupied, (std::vector<std::uint32_t>{5}));
  vcm.check_invariants();
}

TEST(Vcm, OccupiedListSurvivesInterleavedChurn) {
  VirtualChannelMemory vcm(16, 2);
  // Exercise the swap-remove bookkeeping hard.
  for (std::uint32_t round = 0; round < 50; ++round) {
    for (std::uint32_t vc = 0; vc < 16; vc += 2) {
      if (vcm.can_accept(vc)) vcm.push(vc, make_flit(vc, round), round);
    }
    for (std::uint32_t vc = 0; vc < 16; vc += 3) {
      if (!vcm.empty(vc)) (void)vcm.pop(vc);
    }
    vcm.check_invariants();
  }
}

TEST(Vcm, TotalFlitsAggregates) {
  VirtualChannelMemory vcm(4, 4);
  vcm.push(0, make_flit(0, 0), 0);
  vcm.push(1, make_flit(1, 0), 0);
  vcm.push(1, make_flit(1, 1), 0);
  EXPECT_EQ(vcm.total_flits(), 3u);
  (void)vcm.pop(1);
  EXPECT_EQ(vcm.total_flits(), 2u);
}

TEST(Vcm, BankOccupancySumsToTotal) {
  VirtualChannelMemory vcm(8, 4, /*banks=*/4);
  for (std::uint32_t vc = 0; vc < 8; ++vc) {
    vcm.push(vc, make_flit(vc, 0), 0);
    vcm.push(vc, make_flit(vc, 1), 0);
  }
  std::uint64_t banked = 0;
  for (std::uint32_t used : vcm.bank_occupancy()) banked += used;
  EXPECT_EQ(banked, vcm.total_flits());
  vcm.check_invariants();
}

TEST(Vcm, InterleaveSpreadsAcrossBanks) {
  VirtualChannelMemory vcm(16, 4, /*banks=*/4);
  // Steady pushes rotate (vc + push_count) across banks: no bank starves.
  for (std::uint32_t vc = 0; vc < 16; ++vc) {
    for (std::uint32_t i = 0; i < 4; ++i) vcm.push(vc, make_flit(vc, i), i);
  }
  for (std::uint32_t used : vcm.bank_occupancy()) {
    EXPECT_EQ(used, 16u);  // 64 flits over 4 banks, perfectly even
  }
}

TEST(Vcm, PopReturnsTheStoredFlit) {
  VirtualChannelMemory vcm(2, 2);
  Flit flit = make_flit(42, 7);
  flit.frame = 3;
  flit.last_of_frame = true;
  flit.generated_at = 1234;
  vcm.push(1, flit, 2000);
  const Flit popped = vcm.pop(1);
  EXPECT_EQ(popped.connection, 42u);
  EXPECT_EQ(popped.seq, 7u);
  EXPECT_EQ(popped.frame, 3u);
  EXPECT_TRUE(popped.last_of_frame);
  EXPECT_EQ(popped.generated_at, 1234u);
}

// --- ring oracle -------------------------------------------------------------
//
// A std::deque per VC is the reference FIFO.  Random pushes and pops (a VC
// is pushed only when it has room and popped only when it holds a flit)
// wrap every ring's head many times over; after every
// step the memory must agree with the reference on head, head arrival,
// occupancy, bank occupancy and the occupied-VC set, and every pop must
// return the reference's flit.
void run_vcm_oracle(std::uint32_t capacity) {
  SCOPED_TRACE("capacity=" + std::to_string(capacity));
  constexpr std::uint32_t kVcs = 6;
  constexpr std::uint32_t kBanks = 4;
  struct Ref {
    Flit flit;
    Cycle arrived;
    std::uint32_t bank;
  };
  VirtualChannelMemory vcm(kVcs, capacity, kBanks);
  std::vector<std::deque<Ref>> ref(kVcs);
  std::vector<std::uint64_t> pushes(kVcs, 0);
  std::vector<std::uint32_t> banks(kBanks, 0);
  std::vector<bool> wrapped(kVcs, false);
  Rng rng(oracle::args().seed, capacity);
  std::uint64_t seq = 0;

  for (Cycle now = 0; now < oracle::args().iterations; ++now) {
    const auto vc = static_cast<std::uint32_t>(rng.uniform(kVcs));
    // Lean towards pushing on odd VCs and popping on even ones, so some
    // rings sit full and others near empty.
    const bool push = rng.chance(vc % 2 == 1 ? 0.65 : 0.4);
    if (push && ref[vc].size() < capacity) {
      ASSERT_TRUE(vcm.can_accept(vc));
      const Flit flit = make_flit(vc, seq++);
      const auto bank =
          static_cast<std::uint32_t>((vc + pushes[vc]++) % kBanks);
      vcm.push(vc, flit, now);
      ref[vc].push_back({flit, now, bank});
      ++banks[bank];
    } else if (!push && !ref[vc].empty()) {
      const Flit popped = vcm.pop(vc);
      ASSERT_EQ(popped.seq, ref[vc].front().flit.seq) << "cycle " << now;
      ASSERT_EQ(popped.connection, ref[vc].front().flit.connection);
      --banks[ref[vc].front().bank];
      ref[vc].pop_front();
    } else {
      ASSERT_EQ(vcm.can_accept(vc), ref[vc].size() < capacity);
    }

    std::vector<std::uint32_t> occupied;
    std::uint64_t total = 0;
    for (std::uint32_t v = 0; v < kVcs; ++v) {
      ASSERT_EQ(vcm.occupancy(v), ref[v].size()) << "cycle " << now;
      ASSERT_EQ(vcm.empty(v), ref[v].empty());
      total += ref[v].size();
      if (vcm.head_slot(v) != 0) wrapped[v] = true;
      if (ref[v].empty()) continue;
      occupied.push_back(v);
      ASSERT_EQ(vcm.head(v).seq, ref[v].front().flit.seq) << "cycle " << now;
      ASSERT_EQ(vcm.head_arrival(v), ref[v].front().arrived);
    }
    auto listed = vcm.occupied_vcs();
    std::sort(listed.begin(), listed.end());
    ASSERT_EQ(listed, occupied) << "cycle " << now;
    ASSERT_EQ(vcm.bank_occupancy(), banks) << "cycle " << now;
    ASSERT_EQ(vcm.total_flits(), total);
    vcm.check_invariants();
  }
  // Capacity 1 has only slot 0; every larger ring's head moved off slot 0.
  if (capacity > 1 && oracle::args().iterations >= 1'000) {
    for (std::uint32_t v = 0; v < kVcs; ++v)
      EXPECT_TRUE(wrapped[v]) << "vc " << v << " head never left slot 0";
  }
}

TEST(VcmOracle, RingMatchesDequeReference) {
  for (const std::uint32_t capacity : {1u, 2u, 3u, 7u}) {
    run_vcm_oracle(capacity);
    if (HasFatalFailure()) return;
  }
}

TEST(Vcm, HeadWrapsAroundTheRing) {
  VirtualChannelMemory vcm(2, 3);
  for (std::uint64_t i = 0; i < 3; ++i) vcm.push(1, make_flit(1, i), i);
  EXPECT_FALSE(vcm.can_accept(1));
  EXPECT_EQ(vcm.pop(1).seq, 0u);
  EXPECT_EQ(vcm.pop(1).seq, 1u);
  vcm.push(1, make_flit(1, 3), 3);  // lands in slot 0, behind the head
  vcm.push(1, make_flit(1, 4), 4);
  EXPECT_EQ(vcm.head_slot(1), 2u);
  EXPECT_FALSE(vcm.can_accept(1));
  for (std::uint64_t i = 2; i < 5; ++i) EXPECT_EQ(vcm.pop(1).seq, i);
  EXPECT_EQ(vcm.head_slot(1), 2u);  // (2 + 3) mod 3
  EXPECT_TRUE(vcm.empty(1));
  vcm.check_invariants();
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::oracle::main(argc, argv); }
