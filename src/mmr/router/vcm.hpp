// Virtual Channel Memory: the MMR's per-input-link buffer pool (Figure 2).
// One small FIFO per virtual channel, physically organised as interleaved
// RAM banks behind an address generator.  The interleave is functionally
// transparent (the address generator guarantees conflict-free access for
// one enqueue + one dequeue per cycle); we model the per-bank occupancy for
// inspection but storage behaves as per-VC FIFOs.  Each FIFO is a fixed ring
// of `capacity_per_vc` slots inside one contiguous slot array, so buffering
// a flit never allocates; credit flow control bounds every ring's
// occupancy.
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class VirtualChannelMemory {
 public:
  VirtualChannelMemory(std::uint32_t vcs, std::uint32_t capacity_per_vc,
                       std::uint32_t banks = 4);

  [[nodiscard]] std::uint32_t vcs() const {
    return static_cast<std::uint32_t>(rings_.size());
  }
  [[nodiscard]] std::uint32_t capacity_per_vc() const { return capacity_; }

  [[nodiscard]] bool can_accept(std::uint32_t vc) const;
  void push(std::uint32_t vc, const Flit& flit, Cycle now);

  [[nodiscard]] bool empty(std::uint32_t vc) const {
    return occupancy(vc) == 0;
  }
  [[nodiscard]] std::uint32_t occupancy(std::uint32_t vc) const {
    MMR_ASSERT(vc < vcs());
    return rings_[vc].size;
  }
  [[nodiscard]] const Flit& head(std::uint32_t vc) const {
    return head_of(vc).flit;
  }
  /// Cycle the current head flit entered this memory (its queuing-delay
  /// epoch for priority biasing).
  [[nodiscard]] Cycle head_arrival(std::uint32_t vc) const {
    return head_of(vc).arrived;
  }
  /// Ring slot of `vc`'s head, in [0, capacity_per_vc) (inspection only: a
  /// restored checkpoint lays every FIFO out from slot 0).
  [[nodiscard]] std::uint32_t head_slot(std::uint32_t vc) const;

  Flit pop(std::uint32_t vc);

  /// VCs currently holding at least one flit (unordered; O(1) maintenance).
  [[nodiscard]] const std::vector<std::uint32_t>& occupied_vcs() const {
    return occupied_;
  }
  [[nodiscard]] std::uint64_t total_flits() const { return total_; }

  /// Words (flit slots) currently used per RAM bank; banks are assigned
  /// round-robin per (vc, slot) as the interleaved address generator would.
  [[nodiscard]] const std::vector<std::uint32_t>& bank_occupancy() const {
    return bank_used_;
  }

  void check_invariants() const;

  /// Checkpoint walk: per-VC FIFOs (count, then flits + arrival stamps +
  /// bank tags in FIFO order), bank occupancy, the occupied-VC index, and
  /// counters.  Ring positions are not walked.
  void snap(snapshot::Walker& w);

 private:
  struct Slot {
    Flit flit;
    Cycle arrived;
    std::uint32_t bank;
  };
  struct Ring {
    std::uint32_t head = 0;  ///< slot index of the FIFO head
    std::uint32_t size = 0;  ///< flits held
  };

  /// Index in slots_ of the `k`-th flit of `vc`'s FIFO (k = 0: the head).
  [[nodiscard]] std::size_t slot_index(std::uint32_t vc,
                                       std::uint32_t k) const {
    std::uint32_t index = rings_[vc].head + k;
    if (index >= capacity_) index -= capacity_;
    return static_cast<std::size_t>(vc) * capacity_ + index;
  }
  [[nodiscard]] const Slot& head_of(std::uint32_t vc) const {
    MMR_ASSERT(vc < vcs());
    MMR_ASSERT_MSG(rings_[vc].size > 0, "head of an empty VC");
    return slots_[slot_index(vc, 0)];
  }

  std::uint32_t capacity_;
  std::vector<Slot> slots_;  ///< VC v owns [v * capacity_, (v+1) * capacity_)
  std::vector<Ring> rings_;
  std::vector<std::uint64_t> pushes_per_vc_;  ///< drives bank interleave
  std::vector<std::uint32_t> bank_used_;
  std::vector<std::uint32_t> occupied_;
  std::vector<std::int32_t> occupied_pos_;  ///< vc -> index in occupied_
  std::uint64_t total_ = 0;
};

}  // namespace mmr
