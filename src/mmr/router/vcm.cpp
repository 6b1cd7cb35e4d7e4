#include "mmr/router/vcm.hpp"

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

VirtualChannelMemory::VirtualChannelMemory(std::uint32_t vcs,
                                           std::uint32_t capacity_per_vc,
                                           std::uint32_t banks)
    : capacity_(capacity_per_vc),
      slots_(static_cast<std::size_t>(vcs) * capacity_per_vc),
      rings_(vcs),
      pushes_per_vc_(vcs, 0),
      bank_used_(banks, 0),
      occupied_pos_(vcs, -1) {
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(capacity_per_vc > 0);
  MMR_ASSERT(banks > 0);
}

bool VirtualChannelMemory::can_accept(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return rings_[vc].size < capacity_;
}

void VirtualChannelMemory::push(std::uint32_t vc, const Flit& flit,
                                Cycle now) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(can_accept(vc),
                 "VC buffer overflow: credit flow control was violated");
  Ring& ring = rings_[vc];
  Slot& tail = slots_[slot_index(vc, ring.size)];
  tail.flit = flit;
  tail.arrived = now;
  tail.bank = static_cast<std::uint32_t>(
      (vc + pushes_per_vc_[vc]) % bank_used_.size());
  ++pushes_per_vc_[vc];
  ++bank_used_[tail.bank];
  if (ring.size == 0) {
    occupied_pos_[vc] = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(vc);
  }
  ++ring.size;
  ++total_;
}

std::uint32_t VirtualChannelMemory::head_slot(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return rings_[vc].head;
}

Flit VirtualChannelMemory::pop(std::uint32_t vc) {
  MMR_ASSERT(vc < vcs());
  Ring& ring = rings_[vc];
  MMR_ASSERT_MSG(ring.size > 0, "pop from an empty VC");
  const Slot& front = slots_[slot_index(vc, 0)];
  MMR_ASSERT(bank_used_[front.bank] > 0);
  --bank_used_[front.bank];
  const Flit flit = front.flit;
  ring.head = ring.head + 1 == capacity_ ? 0 : ring.head + 1;
  --ring.size;
  --total_;
  if (ring.size == 0) {
    // Swap-remove from the occupied list.
    const auto pos = static_cast<std::size_t>(occupied_pos_[vc]);
    const std::uint32_t moved = occupied_.back();
    occupied_[pos] = moved;
    occupied_pos_[moved] = static_cast<std::int32_t>(pos);
    occupied_.pop_back();
    occupied_pos_[vc] = -1;
  }
  return flit;
}

void VirtualChannelMemory::check_invariants() const {
  std::uint64_t counted = 0;
  std::uint64_t bank_total = 0;
  for (std::uint32_t used : bank_used_) bank_total += used;
  MMR_ASSERT(slots_.size() == static_cast<std::size_t>(vcs()) * capacity_);
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    const Ring& ring = rings_[vc];
    counted += ring.size;
    MMR_ASSERT(ring.size <= capacity_);
    MMR_ASSERT(ring.head < capacity_);
    const bool listed = occupied_pos_[vc] != -1;
    MMR_ASSERT(listed == (ring.size != 0));
    if (listed) {
      const auto pos = static_cast<std::size_t>(occupied_pos_[vc]);
      MMR_ASSERT(pos < occupied_.size());
      MMR_ASSERT(occupied_[pos] == vc);
    }
  }
  MMR_ASSERT(counted == total_);
  MMR_ASSERT(bank_total == total_);
  MMR_ASSERT(occupied_.size() <= vcs());
}

void VirtualChannelMemory::snap(snapshot::Walker& w) {
  // The byte layout of a vector of per-VC FIFOs: the VC count, then per VC
  // its flit count and its slots in FIFO order.  A load lays each FIFO out
  // from slot 0 of its ring.
  std::uint64_t vcs_walked = vcs();
  snapshot::value(w, vcs_walked);
  if (w.loading() && vcs_walked != vcs())
    throw snapshot::SnapshotError("VCM snapshot: VC count mismatch");
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    Ring& ring = rings_[vc];
    std::uint64_t count = ring.size;
    snapshot::value(w, count);
    if (w.loading()) {
      if (count > capacity_)
        throw snapshot::SnapshotError("VCM snapshot: VC holds more flits "
                                      "than its buffer");
      ring.head = 0;
      ring.size = static_cast<std::uint32_t>(count);
    }
    for (std::uint32_t k = 0; k < ring.size; ++k) {
      Slot& s = slots_[slot_index(vc, k)];
      snap_flit(w, s.flit);
      snapshot::value(w, s.arrived);
      snapshot::value(w, s.bank);
    }
  }
  snapshot::walk_vector_pod(w, pushes_per_vc_);
  snapshot::walk_vector_pod(w, bank_used_);
  snapshot::walk_vector_pod(w, occupied_);
  snapshot::walk_vector_pod(w, occupied_pos_);
  snapshot::value(w, total_);
}

}  // namespace mmr
