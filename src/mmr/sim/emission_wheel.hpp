// The emission schedule: the cycle at which each traffic source next emits,
// kept as a hashed timing wheel (Varghese & Lauck, SOSP 1987).  A ring of
// kSpan slots, one per cycle, holds every emission due within kSpan cycles
// of the wheel's position; each slot is an intrusive singly linked list
// through a per-source `next` array, in no particular order.  Emissions
// further ahead (a 64 Kbps CBR source waits 37,500 cycles between flits)
// wait in a small overflow min-heap and move into the ring as they come
// within its span.  Scheduling is O(1): a source is pushed at its slot's
// head.  Taking a cycle sorts its due list once, so sources come off the
// wheel in exactly (cycle, source index) order, as they would off one
// (cycle, source) min-heap.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mmr/sim/time.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class EmissionWheel {
 public:
  /// Cycles the ring spans (a power of two): 16 KB of slot heads.
  static constexpr std::uint32_t kSpan = 4096;
  /// End of a list; also what pop() returns once a cycle is drained.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// An empty wheel for `sources` sources, positioned at cycle 0.
  explicit EmissionWheel(std::uint32_t sources);

  /// Schedules `source`, which must not be pending, to emit at cycle `at`
  /// (>= the wheel's position).  kNever (an exhausted source) schedules
  /// nothing.
  void schedule(std::uint32_t source, Cycle at);

  /// Moves the wheel to `now` and makes the sources due then the due list.
  /// Every cycle is taken once, in order, after the previous due list was
  /// drained.
  void take(Cycle now);

  /// The next source of the due list, in ascending index order; kNone once
  /// the list is drained.  A popped source may be rescheduled at once.
  [[nodiscard]] std::uint32_t pop() {
    return popped_ < due_.size() ? due_[popped_++] : kNone;
  }

  /// Every pending (cycle, source), sorted.
  [[nodiscard]] std::vector<std::pair<Cycle, std::uint32_t>> pending() const;

  /// Walks the pending entries sorted: a u64 count, then each entry's
  /// cycle (u64) and source (u32).  The walk does not depend on the slot
  /// layout; a load rebuilds the wheel at `now` from the entries and throws
  /// SnapshotError on a source index out of range, a source listed twice
  /// or a cycle before `now`.
  void snap(snapshot::Walker& w, Cycle now);

 private:
  static constexpr Cycle kMask = kSpan - 1;
  using Entry = std::pair<Cycle, std::uint32_t>;

  /// Pushes `source` at the head of the slot of `at`.
  void link(std::uint32_t source, Cycle at) {
    std::uint32_t& slot = head_[static_cast<std::size_t>(at & kMask)];
    next_[source] = slot;
    slot = source;
  }
  [[nodiscard]] bool drained() const { return popped_ == due_.size(); }

  std::vector<std::uint32_t> head_;  ///< per slot: first source, or kNone
  std::vector<std::uint32_t> next_;  ///< per source: next in its list
  std::vector<Entry> overflow_;      ///< min-heap of entries >= kSpan ahead
  std::vector<std::uint32_t> due_;   ///< the taken cycle's sources, sorted
  std::size_t popped_ = 0;           ///< how many of due_ were popped
  /// The next cycle to take; the ring holds [cursor_, cursor_ + kSpan).
  Cycle cursor_ = 0;
};

}  // namespace mmr
