// The emission schedule (mmr/sim/emission_wheel.hpp): a timing wheel with
// an overflow heap must hand sources out in exactly the order of one
// (cycle, source) min-heap, across its checkpoint walk too.
#include "mmr/sim/emission_wheel.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "mmr/sim/rng.hpp"
#include "mmr/snapshot/format.hpp"
#include "mmr/snapshot/walker.hpp"
#include "oracle_args.hpp"

namespace mmr {
namespace {

using Entry = std::pair<Cycle, std::uint32_t>;
constexpr Cycle kSpan = EmissionWheel::kSpan;

std::vector<std::uint32_t> drain(EmissionWheel& wheel, Cycle now) {
  wheel.take(now);
  std::vector<std::uint32_t> due;
  for (std::uint32_t s; (s = wheel.pop()) != EmissionWheel::kNone;)
    due.push_back(s);
  return due;
}

/// A snapshot holding one "wheel" section written by `walk`.
template <typename Fn>
snapshot::Snapshot saved(Fn walk) {
  snapshot::Snapshot snap;
  snapshot::SaveWalker save(snap);
  save.section("wheel");
  walk(static_cast<snapshot::Walker&>(save));
  return snap;
}

void load(EmissionWheel& wheel, const snapshot::Snapshot& snap, Cycle now) {
  snapshot::LoadWalker reader(snap);
  reader.section("wheel");
  wheel.snap(reader, now);
  reader.finish();
}

/// A snapshot whose emission list is `entries`, as walked.
snapshot::Snapshot emission_list(std::vector<Entry> entries) {
  return saved([&entries](snapshot::Walker& w) {
    std::uint64_t n = entries.size();
    snapshot::value(w, n);
    for (Entry& entry : entries) {
      snapshot::value(w, entry.first);
      snapshot::value(w, entry.second);
    }
  });
}

TEST(EmissionWheel, SameCycleComesOutInSourceOrder) {
  EmissionWheel wheel(8);
  for (const std::uint32_t s : {5u, 1u, 7u, 3u, 0u}) wheel.schedule(s, 2);
  wheel.schedule(2, 1);
  EXPECT_TRUE(drain(wheel, 0).empty());
  EXPECT_EQ(drain(wheel, 1), std::vector<std::uint32_t>{2});
  EXPECT_EQ(drain(wheel, 2), (std::vector<std::uint32_t>{0, 1, 3, 5, 7}));
}

TEST(EmissionWheel, OverflowEntriesJoinTheRingInOrder) {
  EmissionWheel wheel(4);
  const Cycle far = 3 * kSpan + 17;
  wheel.schedule(3, far);
  wheel.schedule(0, kSpan);  // one past the ring at cycle 0
  wheel.schedule(2, far);
  wheel.schedule(1, kNever);  // exhausted: never due
  EXPECT_EQ(wheel.pending(),
            (std::vector<Entry>{{kSpan, 0}, {far, 2}, {far, 3}}));
  for (Cycle now = 0; now <= far; ++now) {
    const std::vector<std::uint32_t> due = drain(wheel, now);
    if (now == kSpan) {
      EXPECT_EQ(due, std::vector<std::uint32_t>{0});
    } else if (now == far) {
      EXPECT_EQ(due, (std::vector<std::uint32_t>{2, 3}));
    } else {
      ASSERT_TRUE(due.empty()) << "cycle " << now;
    }
  }
  EXPECT_TRUE(wheel.pending().empty());
}

TEST(EmissionWheel, APoppedSourceReschedulesInItsOwnCycle) {
  EmissionWheel wheel(3);
  for (std::uint32_t s = 0; s < 3; ++s) wheel.schedule(s, 0);
  wheel.take(0);
  std::vector<std::uint32_t> due;
  for (std::uint32_t s; (s = wheel.pop()) != EmissionWheel::kNone;) {
    due.push_back(s);
    wheel.schedule(s, 1 + s * kSpan);
  }
  EXPECT_EQ(due, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(wheel.pending(),
            (std::vector<Entry>{{1, 0}, {1 + kSpan, 1}, {1 + 2 * kSpan, 2}}));
}

TEST(EmissionWheel, CheckpointWalksTheSortedEntries) {
  EmissionWheel wheel(4);
  wheel.schedule(2, 7);
  wheel.schedule(0, 5 * kSpan);
  wheel.schedule(3, 7);
  wheel.schedule(1, 2);
  for (Cycle now = 0; now < 2; ++now) ASSERT_TRUE(drain(wheel, now).empty());
  const snapshot::Snapshot snap =
      saved([&wheel](snapshot::Walker& w) { wheel.snap(w, 2); });
  EXPECT_EQ(snap.sections.at(0).data,
            emission_list({{2, 1}, {7, 2}, {7, 3}, {5 * kSpan, 0}})
                .sections.at(0)
                .data);
  EmissionWheel copy(4);
  load(copy, snap, 2);
  EXPECT_EQ(copy.pending(), wheel.pending());
  EXPECT_EQ(drain(copy, 2), std::vector<std::uint32_t>{1});
}

void expect_refused(const std::vector<Entry>& entries, Cycle now,
                    const std::string& expected) {
  EmissionWheel wheel(4);
  try {
    load(wheel, emission_list(entries), now);
    ADD_FAILURE() << "a malformed emission list must be refused";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
}

TEST(EmissionWheel, LoadRefusesASourceOutOfRange) {
  expect_refused({{10, 1}, {12, 4}}, 10, "source 4 of 4");
}

TEST(EmissionWheel, LoadRefusesADuplicateSource) {
  expect_refused({{10, 2}, {11, 2}}, 10, "source 2 twice");
}

TEST(EmissionWheel, LoadRefusesACycleBeforeNow) {
  expect_refused({{10, 0}, {9, 1}}, 10, "precedes the snapshot's cycle 10");
}

TEST(EmissionWheel, LoadRefusesMoreEntriesThanSources) {
  expect_refused({{10, 0}, {10, 1}, {10, 2}, {10, 3}, {11, 0}}, 10,
                 "5 entries for 4 sources");
}

// Differential oracle: the wheel against a (cycle, source) min-heap, fed
// the same random schedule.  Every popped source is rescheduled with a gap
// below, at or far above the ring's span, or not at all (exhausted; some
// come back later), and gaps drawn from a handful of values make many
// sources due in the same cycle.  The due lists must agree every cycle,
// across a checkpoint round trip into a fresh wheel halfway through.
void run_wheel_oracle(std::uint32_t sources, std::uint64_t stream) {
  SCOPED_TRACE("sources=" + std::to_string(sources));
  Rng rng(oracle::args().seed, stream);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> reference;
  EmissionWheel wheel(sources);
  std::vector<std::uint32_t> exhausted;
  // Like a CBR source, each source keeps one kind of gap: short ones from
  // a handful of values (so many sources fall due together), gaps at the
  // span, within it and far beyond it.  Now and then a source runs dry.
  const auto gap = [&rng](std::uint32_t source) -> Cycle {
    if (rng.chance(0.02)) return kNever;
    switch (source % 5) {
      case 0:
      case 1:
        return 1 + rng.uniform(8) * 4;
      case 2:
        return kSpan - 1 + rng.uniform(3);
      case 3:
        return 1 + rng.uniform(kSpan);
      default:
        return kSpan + rng.uniform(12 * kSpan);
    }
  };
  const auto schedule = [&](std::uint32_t source, Cycle now) {
    const Cycle g = gap(source);
    const Cycle at = g == kNever ? kNever : now + g;
    wheel.schedule(source, at);
    if (at == kNever) {
      exhausted.push_back(source);
    } else {
      reference.emplace(at, source);
    }
  };
  // Half the sources start within a few cycles of each other.
  for (std::uint32_t s = 0; s < sources; ++s) {
    const Cycle at = rng.uniform(s % 2 == 0 ? 16 : 2 * kSpan);
    wheel.schedule(s, at);
    reference.emplace(at, s);
  }

  const Cycle cycles = oracle::args().iterations;
  std::uint64_t popped = 0;
  std::uint64_t crowded = 0;  // cycles with several sources due
  for (Cycle now = 0; now < cycles; ++now) {
    if (now == cycles / 2) {
      const snapshot::Snapshot snap =
          saved([&wheel, now](snapshot::Walker& w) { wheel.snap(w, now); });
      EmissionWheel copy(sources);
      load(copy, snap, now);
      ASSERT_EQ(copy.pending(), wheel.pending());
      wheel = std::move(copy);
    }
    std::vector<std::uint32_t> expected;
    while (!reference.empty() && reference.top().first <= now) {
      ASSERT_EQ(reference.top().first, now);
      expected.push_back(reference.top().second);
      reference.pop();
    }
    wheel.take(now);
    std::vector<std::uint32_t> due;
    for (std::uint32_t s; (s = wheel.pop()) != EmissionWheel::kNone;) {
      due.push_back(s);
      schedule(s, now);
    }
    ASSERT_EQ(due, expected) << "cycle " << now;
    popped += due.size();
    if (due.size() > 1) ++crowded;
    // Now and then an exhausted source comes back.
    if (!exhausted.empty() && rng.chance(0.01)) {
      const std::uint32_t s = exhausted.back();
      exhausted.pop_back();
      schedule(s, now);
    }
    if (now % 1024 == 0) {
      std::vector<Entry> pending;
      for (auto copy = reference; !copy.empty(); copy.pop())
        pending.push_back(copy.top());
      ASSERT_EQ(wheel.pending(), pending) << "cycle " << now;
    }
  }
  if (cycles >= 1'000 && sources >= 64) {
    EXPECT_GT(popped, 2 * std::uint64_t{sources});
    EXPECT_GT(crowded, 20u) << "too few cycles had several sources due";
  }
}

TEST(EmissionWheelOracle, MatchesAHeapOfCycleAndSource) {
  for (const std::uint32_t sources : {1u, 7u, 64u, 1000u}) {
    run_wheel_oracle(sources, sources);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::oracle::main(argc, argv); }
