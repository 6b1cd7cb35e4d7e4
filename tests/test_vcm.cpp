// The router's input buffer (mmr/router/input_buffer.hpp) under both
// keyings: per VC (the paper's Virtual Channel Memory, `qd=vc`) and per
// output (the virtual output queues of `qd=voq|cicq`).
#include "mmr/router/input_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "mmr/sim/rng.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/walker.hpp"
#include "oracle_args.hpp"

namespace mmr {
namespace {

Flit make_flit(ConnectionId connection, std::uint64_t seq) {
  Flit flit;
  flit.connection = connection;
  flit.seq = seq;
  return flit;
}

/// A buffer keyed by VC with the full vcs x capacity pool.
InputBuffer per_vc(std::uint32_t vcs, std::uint32_t capacity) {
  return InputBuffer(vcs, vcs, capacity, vcs * capacity);
}

std::vector<std::uint32_t> occupied_keys(const InputBuffer& buffer) {
  std::vector<std::uint32_t> keys;
  buffer.for_each_occupied([&keys](std::uint32_t key) { keys.push_back(key); });
  return keys;
}

/// Saves `buffer` and loads it into a fresh buffer of the same shape.
InputBuffer restored_copy(InputBuffer& buffer) {
  snapshot::Snapshot snap;
  snapshot::SaveWalker save(snap);
  save.section("buffer");
  buffer.snap(save);
  InputBuffer copy(buffer.keys(), buffer.vcs(), buffer.capacity_per_vc(),
                   buffer.slots());
  snapshot::LoadWalker load(snap);
  load.section("buffer");
  copy.snap(load);
  load.finish();
  return copy;
}

/// Heads whose pool index differs from the layout a restore gives: the
/// FIFOs key by key, each in consecutive slots, from slot 0.
std::uint32_t heads_off_fresh_layout(const InputBuffer& buffer) {
  std::uint32_t off = 0;
  std::uint32_t fresh = 0;
  for (std::uint32_t key = 0; key < buffer.keys(); ++key) {
    if (buffer.empty(key)) continue;
    if (buffer.head_index(key) != fresh) ++off;
    fresh += buffer.occupancy(key);
  }
  return off;
}

TEST(InputBuffer, StartsEmpty) {
  const InputBuffer buffer(4, 8, 2, 10);
  EXPECT_EQ(buffer.keys(), 4u);
  EXPECT_EQ(buffer.vcs(), 8u);
  EXPECT_EQ(buffer.capacity_per_vc(), 2u);
  EXPECT_EQ(buffer.slots(), 10u);
  EXPECT_EQ(buffer.total_flits(), 0u);
  EXPECT_TRUE(occupied_keys(buffer).empty());
  for (std::uint32_t key = 0; key < 4; ++key) EXPECT_TRUE(buffer.empty(key));
  for (std::uint32_t vc = 0; vc < 8; ++vc) {
    EXPECT_TRUE(buffer.can_accept(vc));
    EXPECT_EQ(buffer.vc_occupancy(vc), 0u);
  }
  buffer.check_invariants();
}

TEST(InputBuffer, FifoOrderPerKey) {
  InputBuffer buffer = per_vc(4, 4);
  buffer.push(2, 2, make_flit(9, 0), 10);
  buffer.push(1, 1, make_flit(8, 0), 10);
  buffer.push(2, 2, make_flit(9, 1), 11);
  buffer.push(2, 2, make_flit(9, 2), 12);
  EXPECT_EQ(buffer.head(2).flit.seq, 0u);
  EXPECT_EQ(buffer.occupancy(2), 3u);
  EXPECT_EQ(buffer.pop(2).flit.seq, 0u);
  EXPECT_EQ(buffer.pop(2).flit.seq, 1u);
  EXPECT_EQ(buffer.pop(2).flit.seq, 2u);
  EXPECT_TRUE(buffer.empty(2));
  EXPECT_EQ(buffer.head(1).flit.connection, 8u);
  buffer.check_invariants();
}

TEST(InputBuffer, HeadArrivalTracksQueueEpoch) {
  InputBuffer buffer = per_vc(4, 4);
  buffer.push(1, 1, make_flit(0, 0), 100);
  buffer.push(1, 1, make_flit(0, 1), 120);
  EXPECT_EQ(buffer.head(1).arrived, 100u);
  (void)buffer.pop(1);
  EXPECT_EQ(buffer.head(1).arrived, 120u);
}

TEST(InputBuffer, CapacityBindsPerVcUnderEitherKeying) {
  // Output keying: VCs 0 and 1 share key 3, yet each keeps its own cap.
  InputBuffer buffer(4, 4, 2, 8);
  buffer.push(3, 0, make_flit(0, 0), 0);
  EXPECT_TRUE(buffer.can_accept(0));
  buffer.push(3, 0, make_flit(0, 1), 1);
  EXPECT_FALSE(buffer.can_accept(0));
  EXPECT_TRUE(buffer.can_accept(1));
  buffer.push(3, 1, make_flit(1, 0), 2);
  EXPECT_EQ(buffer.occupancy(3), 3u);
  EXPECT_EQ(buffer.vc_occupancy(0), 2u);
  EXPECT_EQ(buffer.vc_occupancy(1), 1u);
  const InputBuffer::Slot head = buffer.pop(3);
  EXPECT_EQ(head.vc, 0u);
  EXPECT_TRUE(buffer.can_accept(0));
  buffer.check_invariants();
}

TEST(InputBufferDeath, OverflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InputBuffer buffer = per_vc(2, 1);
  buffer.push(0, 0, make_flit(0, 0), 0);
  EXPECT_DEATH(buffer.push(0, 0, make_flit(0, 1), 1), "credit");
}

TEST(InputBufferDeath, PoolExhaustionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A pool smaller than vcs x capacity, as under flow=shared: the MMU's
  // admission must keep the port within it.
  InputBuffer buffer(4, 4, 4, 2);
  buffer.push(0, 0, make_flit(0, 0), 0);
  buffer.push(1, 1, make_flit(1, 0), 0);
  EXPECT_TRUE(buffer.can_accept(2));
  EXPECT_DEATH(buffer.push(2, 2, make_flit(2, 0), 1), "pool");
}

TEST(InputBufferDeath, PopEmptyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  InputBuffer buffer = per_vc(2, 1);
  EXPECT_DEATH((void)buffer.pop(0), "empty");
}

TEST(InputBuffer, OccupiedKeysAscend) {
  InputBuffer buffer = per_vc(130, 2);
  buffer.push(129, 129, make_flit(0, 0), 0);
  buffer.push(3, 3, make_flit(1, 0), 0);
  buffer.push(64, 64, make_flit(2, 0), 0);
  buffer.push(3, 3, make_flit(1, 1), 1);
  EXPECT_EQ(occupied_keys(buffer), (std::vector<std::uint32_t>{3, 64, 129}));
  (void)buffer.pop(3);
  (void)buffer.pop(3);  // key 3 now empty
  EXPECT_EQ(occupied_keys(buffer), (std::vector<std::uint32_t>{64, 129}));
  buffer.check_invariants();
}

TEST(InputBuffer, PopReturnsTheStoredSlot) {
  InputBuffer buffer(2, 4, 2, 8);
  Flit flit = make_flit(42, 7);
  flit.frame = 3;
  flit.last_of_frame = true;
  flit.generated_at = 1234;
  buffer.push(1, 3, flit, 2000);
  const InputBuffer::Slot popped = buffer.pop(1);
  EXPECT_EQ(popped.flit.connection, 42u);
  EXPECT_EQ(popped.flit.seq, 7u);
  EXPECT_EQ(popped.flit.frame, 3u);
  EXPECT_TRUE(popped.flit.last_of_frame);
  EXPECT_EQ(popped.flit.generated_at, 1234u);
  EXPECT_EQ(popped.arrived, 2000u);
  EXPECT_EQ(popped.vc, 3u);
}

TEST(InputBuffer, DrainTakesOneVcAndKeepsTheRestInOrder) {
  InputBuffer buffer(2, 4, 4, 16);
  for (std::uint64_t i = 0; i < 4; ++i) {
    buffer.push(0, 1, make_flit(1, i), i);  // the drained VC
    buffer.push(0, 2, make_flit(2, i), i);
  }
  buffer.push(1, 3, make_flit(3, 0), 9);
  std::vector<Flit> drained;
  buffer.drain(0, 1, drained);
  ASSERT_EQ(drained.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(drained[i].connection, 1u);
    EXPECT_EQ(drained[i].seq, i);
  }
  EXPECT_EQ(buffer.vc_occupancy(1), 0u);
  EXPECT_EQ(buffer.occupancy(0), 4u);
  EXPECT_EQ(buffer.total_flits(), 5u);
  buffer.check_invariants();
  buffer.push(0, 1, make_flit(1, 4), 10);  // lands behind VC 2's tail
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(buffer.pop(0).flit.seq, i);
  EXPECT_EQ(buffer.pop(0).vc, 1u);
  EXPECT_TRUE(buffer.empty(0));
  buffer.check_invariants();
}

/// Every occupied key's head view must equal its pool head.
void expect_head_views(const InputBuffer& buffer) {
  buffer.for_each_occupied([&buffer](std::uint32_t key) {
    const InputBuffer::HeadView& view = buffer.head_view(key);
    const InputBuffer::Slot& head = buffer.head(key);
    EXPECT_EQ(view.arrived, head.arrived) << "key " << key;
    EXPECT_EQ(view.vc, head.vc) << "key " << key;
    EXPECT_EQ(view.demoted, head.flit.demoted) << "key " << key;
  });
  buffer.check_invariants();
}

Flit demoted_flit(ConnectionId connection, std::uint64_t seq) {
  Flit flit = make_flit(connection, seq);
  flit.demoted = true;
  return flit;
}

// A drain that takes a key's head moves its view to the next flit kept, or
// (keyed by VC, where a drain empties the key) leaves the key empty until a
// push sets the view afresh.
TEST(InputBuffer, HeadViewFollowsADrainedHead) {
  for (const bool by_output : {false, true}) {
    SCOPED_TRACE(by_output ? "by output" : "by vc");
    InputBuffer buffer(4, 4, 4, 16);
    const auto key_of = [by_output](std::uint32_t vc) {
      return by_output ? 2u : vc;
    };
    buffer.push(key_of(1), 1, demoted_flit(1, 0), 5);
    buffer.push(key_of(2), 2, make_flit(2, 0), 6);
    buffer.push(key_of(1), 1, make_flit(1, 1), 7);
    buffer.push(key_of(3), 3, make_flit(3, 0), 8);
    EXPECT_TRUE(buffer.head_view(key_of(1)).demoted);
    std::vector<Flit> drained;
    buffer.drain(key_of(1), 1, drained);
    EXPECT_EQ(drained.size(), 2u);
    expect_head_views(buffer);
    if (by_output) {
      const InputBuffer::HeadView& view = buffer.head_view(2);
      EXPECT_EQ(view.vc, 2u);
      EXPECT_EQ(view.arrived, 6u);
      EXPECT_FALSE(view.demoted);
    } else {
      EXPECT_TRUE(buffer.empty(1));
    }
    buffer.push(key_of(1), 1, make_flit(1, 2), 9);
    expect_head_views(buffer);
    buffer.drain(key_of(3), 3, drained);  // a lone flit: head when keyed by VC
    expect_head_views(buffer);
  }
}

// A checkpoint load rebuilds the head views by pushing, under either keying.
TEST(InputBuffer, HeadViewSurvivesASnapshotLoad) {
  for (const bool by_output : {false, true}) {
    SCOPED_TRACE(by_output ? "by output" : "by vc");
    InputBuffer buffer(4, 4, 4, 16);
    const auto key_of = [by_output](std::uint32_t vc) {
      return by_output ? vc % 2 : vc;
    };
    for (std::uint32_t vc = 0; vc < 4; ++vc) {
      buffer.push(key_of(vc), vc, make_flit(vc, 0), 10 + vc);
      buffer.push(key_of(vc), vc, demoted_flit(vc, 1), 20 + vc);
    }
    (void)buffer.pop(key_of(0));  // VC 0's demoted flit leads key 0
    (void)buffer.pop(key_of(3));
    expect_head_views(buffer);
    const InputBuffer copy = restored_copy(buffer);
    expect_head_views(copy);
    EXPECT_EQ(occupied_keys(copy), occupied_keys(buffer));
    for (const std::uint32_t key : occupied_keys(buffer)) {
      EXPECT_EQ(copy.head_view(key).arrived, buffer.head_view(key).arrived);
      EXPECT_EQ(copy.head_view(key).vc, buffer.head_view(key).vc);
      EXPECT_EQ(copy.head_view(key).demoted, buffer.head_view(key).demoted);
    }
  }
}

TEST(InputBuffer, RestoreLaysFifosOutFromSlotZero) {
  InputBuffer buffer = per_vc(3, 3);
  buffer.push(2, 2, make_flit(2, 0), 0);
  buffer.push(0, 0, make_flit(0, 0), 1);
  buffer.push(0, 0, make_flit(0, 1), 2);
  (void)buffer.pop(2);
  buffer.push(1, 1, make_flit(1, 0), 3);  // reuses VC 2's freed slot 0
  EXPECT_EQ(buffer.head_index(1), 0u);
  EXPECT_GT(heads_off_fresh_layout(buffer), 0u);

  const InputBuffer copy = restored_copy(buffer);
  copy.check_invariants();
  EXPECT_EQ(heads_off_fresh_layout(copy), 0u);
  EXPECT_EQ(copy.head_index(0), 0u);
  EXPECT_EQ(copy.head_index(1), 2u);
  EXPECT_EQ(occupied_keys(copy), occupied_keys(buffer));
  EXPECT_EQ(copy.head(1).arrived, 3u);
  EXPECT_EQ(copy.vc_occupancy(0), 2u);
  EXPECT_EQ(copy.total_flits(), buffer.total_flits());
}

// --- pool oracle -------------------------------------------------------------
//
// A std::deque per key is the reference FIFO.  Random pushes, pops and
// drains run keyed by VC or by output, over a pool either exactly
// vcs x capacity or tighter (as under flow=shared, where the port's
// allowance binds before the per-VC caps).  Output keying binds each VC to
// an output and now and then rebinds a drained VC, as a fault reroute
// does.  After every step the buffer must agree with the reference on every
// head and its arrival, every key's and VC's count, the occupied-key set
// and the total, and its head views on every head; every pop and drain
// must return the reference's flits.
// Each scenario ends with a checkpoint round trip into a fresh buffer.
void run_buffer_oracle(bool by_output, std::uint32_t vcs,
                       std::uint32_t capacity) {
  constexpr std::uint32_t kOutputs = 5;
  const std::uint32_t keys = by_output ? kOutputs : vcs;
  const std::uint32_t full = vcs * capacity;
  // Odd capacities get the full pool; even ones a pool that runs dry before
  // every VC reaches its cap.
  const std::uint32_t slots =
      capacity % 2 == 1 ? full : std::max(capacity, full / 3);
  SCOPED_TRACE(std::string(by_output ? "by output" : "by vc") +
               " vcs=" + std::to_string(vcs) +
               " capacity=" + std::to_string(capacity) +
               " slots=" + std::to_string(slots));
  struct Ref {
    Flit flit;
    Cycle arrived;
    std::uint32_t vc;
  };
  InputBuffer buffer(keys, vcs, capacity, slots);
  std::vector<std::deque<Ref>> ref(keys);
  std::vector<std::uint32_t> vc_count(vcs, 0);
  std::vector<std::uint32_t> output_of(vcs);
  Rng rng(oracle::args().seed, vcs * 16 + capacity * 2 + (by_output ? 1 : 0));
  for (std::uint32_t& output : output_of)
    output = static_cast<std::uint32_t>(rng.uniform(kOutputs));
  const auto key_of = [&](std::uint32_t vc) {
    return by_output ? output_of[vc] : vc;
  };
  std::uint64_t total = 0;
  std::uint64_t seq = 0;
  bool left_fresh_layout = false;

  for (Cycle now = 0; now < oracle::args().iterations; ++now) {
    const auto vc = static_cast<std::uint32_t>(rng.uniform(vcs));
    const std::uint32_t key = key_of(vc);
    if (rng.chance(0.02)) {
      std::vector<Flit> drained;
      buffer.drain(key, vc, drained);
      std::vector<std::uint64_t> expected;
      std::erase_if(ref[key], [&](const Ref& r) {
        if (r.vc == vc) expected.push_back(r.flit.seq);
        return r.vc == vc;
      });
      ASSERT_EQ(drained.size(), expected.size()) << "cycle " << now;
      for (std::size_t i = 0; i < drained.size(); ++i)
        ASSERT_EQ(drained[i].seq, expected[i]) << "cycle " << now;
      total -= expected.size();
      vc_count[vc] = 0;
      if (by_output && rng.chance(0.5))
        output_of[vc] = static_cast<std::uint32_t>(rng.uniform(kOutputs));
    } else if (rng.chance(vc % 2 == 1 ? 0.65 : 0.4)) {
      // Lean towards pushing on odd VCs and popping on even ones, so some
      // VCs sit at their cap and others near empty.
      ASSERT_EQ(buffer.can_accept(vc), vc_count[vc] < capacity);
      if (vc_count[vc] < capacity && total < slots) {
        Flit flit = make_flit(vc, seq++);
        flit.demoted = flit.seq % 3 == 0;
        buffer.push(key, vc, flit, now);
        ref[key].push_back({flit, now, vc});
        ++vc_count[vc];
        ++total;
      }
    } else if (!ref[key].empty()) {
      const InputBuffer::Slot popped = buffer.pop(key);
      const Ref& front = ref[key].front();
      ASSERT_EQ(popped.flit.seq, front.flit.seq) << "cycle " << now;
      ASSERT_EQ(popped.flit.connection, front.flit.connection);
      ASSERT_EQ(popped.arrived, front.arrived);
      ASSERT_EQ(popped.vc, front.vc);
      --vc_count[front.vc];
      --total;
      ref[key].pop_front();
    }

    std::vector<std::uint32_t> occupied;
    for (std::uint32_t k = 0; k < keys; ++k) {
      ASSERT_EQ(buffer.occupancy(k), ref[k].size()) << "cycle " << now;
      ASSERT_EQ(buffer.empty(k), ref[k].empty());
      if (ref[k].empty()) continue;
      occupied.push_back(k);
      ASSERT_EQ(buffer.head(k).flit.seq, ref[k].front().flit.seq)
          << "cycle " << now;
      ASSERT_EQ(buffer.head(k).arrived, ref[k].front().arrived);
      ASSERT_EQ(buffer.head(k).vc, ref[k].front().vc);
      ASSERT_EQ(buffer.head_view(k).arrived, ref[k].front().arrived);
      ASSERT_EQ(buffer.head_view(k).vc, ref[k].front().vc);
      ASSERT_EQ(buffer.head_view(k).demoted, ref[k].front().flit.demoted);
    }
    ASSERT_EQ(occupied_keys(buffer), occupied) << "cycle " << now;
    for (std::uint32_t v = 0; v < vcs; ++v)
      ASSERT_EQ(buffer.vc_occupancy(v), vc_count[v]) << "cycle " << now;
    ASSERT_EQ(buffer.total_flits(), total);
    if (heads_off_fresh_layout(buffer) != 0) left_fresh_layout = true;
    if (now % 16 == 0) buffer.check_invariants();
  }
  buffer.check_invariants();
  // A one-slot pool has no other layout; every larger one churns its free
  // list until some head sits elsewhere.
  if (slots > 1 && oracle::args().iterations >= 1'000) {
    EXPECT_TRUE(left_fresh_layout) << "no head ever left its fresh slot";
  }

  InputBuffer copy = restored_copy(buffer);
  copy.check_invariants();
  ASSERT_EQ(heads_off_fresh_layout(copy), 0u);
  ASSERT_EQ(copy.total_flits(), total);
  for (std::uint32_t v = 0; v < vcs; ++v)
    ASSERT_EQ(copy.vc_occupancy(v), vc_count[v]);
  for (std::uint32_t k = 0; k < keys; ++k) {
    for (const Ref& r : ref[k]) {
      const InputBuffer::Slot popped = copy.pop(k);
      ASSERT_EQ(popped.flit.seq, r.flit.seq);
      ASSERT_EQ(popped.arrived, r.arrived);
      ASSERT_EQ(popped.vc, r.vc);
    }
    ASSERT_TRUE(copy.empty(k));
  }
}

void run_buffer_oracles(bool by_output) {
  for (const std::uint32_t capacity : {1u, 2u, 3u, 7u}) {
    for (const std::uint32_t vcs : {1u, 63u, 64u, 65u, 200u}) {
      run_buffer_oracle(by_output, vcs, capacity);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(InputBufferOracle, KeyedByVcMatchesDequeReference) {
  run_buffer_oracles(/*by_output=*/false);
}

TEST(InputBufferOracle, KeyedByOutputMatchesDequeReference) {
  run_buffer_oracles(/*by_output=*/true);
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::oracle::main(argc, argv); }
