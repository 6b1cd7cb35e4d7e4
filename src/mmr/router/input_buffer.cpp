#include "mmr/router/input_buffer.hpp"

#include <algorithm>

#include "mmr/snapshot/walker.hpp"

namespace mmr {

InputBuffer::InputBuffer(std::uint32_t keys, std::uint32_t vcs,
                         std::uint32_t capacity_per_vc, std::uint32_t slots)
    : capacity_(capacity_per_vc),
      pool_(slots),
      fifos_(keys),
      views_(keys),
      vc_count_(vcs) {
  MMR_ASSERT(keys > 0 && keys <= kKeyMask);
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(capacity_per_vc > 0);
  MMR_ASSERT(slots > 0 && slots < kNone);
  clear();
}

void InputBuffer::clear() {
  for (std::uint32_t slot = 0; slot < slots(); ++slot)
    pool_[slot].next = slot + 1 == slots() ? kNone : slot + 1;
  free_ = 0;
  std::fill(fifos_.begin(), fifos_.end(), Fifo{});
  std::fill(vc_count_.begin(), vc_count_.end(), 0);
  live_ = 0;
  total_ = 0;
}

void InputBuffer::push(std::uint32_t key, std::uint32_t vc, const Flit& flit,
                       Cycle now) {
  MMR_ASSERT(key < keys());
  MMR_ASSERT_MSG(can_accept(vc),
                 "VC buffer overflow: credit flow control was violated");
  MMR_ASSERT_MSG(free_ != kNone,
                 "input buffer pool exhausted: admission was violated");
  const std::uint32_t slot = free_;
  free_ = pool_[slot].next;
  // Field by field: an aggregate temporary would be copied out through a
  // load that straddles its padded stores, stalling store forwarding.
  Slot& tail = pool_[slot];
  tail.flit = flit;
  tail.arrived = now;
  tail.vc = vc;
  pool_[slot].next = kNone;
  Fifo& fifo = fifos_[key];
  if (fifo.size == 0) {
    fifo.head = slot;
    fifo.view = live_;
    views_[live_++] = {now, vc, key & kKeyMask, flit.demoted};
  } else {
    pool_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
  ++fifo.size;
  ++vc_count_[vc];
  ++total_;
}

void InputBuffer::release(std::uint32_t slot) {
  pool_[slot].next = free_;
  free_ = slot;
}

void InputBuffer::on_removed(std::uint32_t key, std::uint32_t vc) {
  Fifo& fifo = fifos_[key];
  MMR_ASSERT(fifo.size > 0 && vc_count_[vc] > 0);
  --vc_count_[vc];
  --total_;
  if (--fifo.size == 0) {
    // The last view takes the emptied key's place.
    const HeadView& last = views_[--live_];
    fifos_[last.key].view = fifo.view;
    views_[fifo.view] = last;
    fifo = Fifo{};
  }
}

InputBuffer::Slot InputBuffer::pop(std::uint32_t key) {
  MMR_ASSERT(key < keys());
  MMR_ASSERT_MSG(!empty(key), "pop from an empty queue");
  const std::uint32_t slot = fifos_[key].head;
  const std::uint32_t next = pool_[slot].next;
  fifos_[key].head = next;
  if (next != kNone) set_head(key, next);
  release(slot);
  on_removed(key, pool_[slot].vc);
  return pool_[slot];
}

void InputBuffer::drain(std::uint32_t key, std::uint32_t vc,
                        std::vector<Flit>& out) {
  MMR_ASSERT(key < keys());
  MMR_ASSERT(vc < vcs());
  std::uint32_t kept = kNone;  // last slot left in the FIFO
  std::uint32_t slot = fifos_[key].head;
  while (slot != kNone) {
    const std::uint32_t next = pool_[slot].next;
    if (pool_[slot].vc != vc) {
      kept = slot;
    } else {
      out.push_back(pool_[slot].flit);
      (kept == kNone ? fifos_[key].head : pool_[kept].next) = next;
      if (fifos_[key].tail == slot) fifos_[key].tail = kept;
      release(slot);
      on_removed(key, vc);
    }
    slot = next;
  }
  if (fifos_[key].size != 0) set_head(key, fifos_[key].head);
}

void InputBuffer::check_invariants() const {
  std::vector<std::uint32_t> per_vc(vcs(), 0);
  std::uint64_t counted = 0;
  std::uint32_t occupied = 0;
  for (std::uint32_t key = 0; key < keys(); ++key) {
    const Fifo& fifo = fifos_[key];
    MMR_ASSERT((fifo.head == kNone) == (fifo.size == 0));
    std::uint32_t length = 0;
    std::uint32_t last = kNone;
    for (std::uint32_t slot = fifo.head; slot != kNone;
         slot = pool_[slot].next) {
      MMR_ASSERT(slot < slots() && length < fifo.size);
      MMR_ASSERT(pool_[slot].vc < vcs());
      ++per_vc[pool_[slot].vc];
      ++length;
      last = slot;
    }
    MMR_ASSERT(length == fifo.size && last == fifo.tail);
    if (fifo.size != 0) {
      ++occupied;
      MMR_ASSERT(fifo.view < live_ && views_[fifo.view].key == key);
      const HeadView& view = views_[fifo.view];
      const Slot& head = pool_[fifo.head];
      MMR_ASSERT_MSG(view.arrived == head.arrived && view.vc == head.vc &&
                         view.demoted == head.flit.demoted,
                     "head view differs from the pool head");
    }
    counted += length;
  }
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    MMR_ASSERT(per_vc[vc] == vc_count_[vc]);
    MMR_ASSERT(vc_count_[vc] <= capacity_);
  }
  MMR_ASSERT(occupied == live_);
  MMR_ASSERT(counted == total_);
  std::uint64_t free = 0;
  for (std::uint32_t slot = free_; slot != kNone; slot = pool_[slot].next) {
    MMR_ASSERT(slot < slots() && free < slots());
    ++free;
  }
  MMR_ASSERT(free + total_ == slots());
}

void InputBuffer::snap(snapshot::Walker& w) {
  std::uint64_t keys_walked = keys();
  snapshot::value(w, keys_walked);
  if (!w.loading()) {
    for (std::uint32_t key = 0; key < keys(); ++key) {
      std::uint64_t count = fifos_[key].size;
      snapshot::value(w, count);
      for (std::uint32_t slot = fifos_[key].head; slot != kNone;
           slot = pool_[slot].next) {
        snap_flit(w, pool_[slot].flit);
        snapshot::value(w, pool_[slot].arrived);
        snapshot::value(w, pool_[slot].vc);
      }
    }
    return;
  }
  if (keys_walked != keys())
    throw snapshot::SnapshotError("input buffer snapshot: key count mismatch");
  clear();
  for (std::uint32_t key = 0; key < keys(); ++key) {
    std::uint64_t count = 0;
    snapshot::value(w, count);
    if (count > slots() - total_)
      throw snapshot::SnapshotError(
          "input buffer snapshot: more flits than the pool holds");
    for (std::uint64_t k = 0; k < count; ++k) {
      Slot slot{};
      snap_flit(w, slot.flit);
      snapshot::value(w, slot.arrived);
      snapshot::value(w, slot.vc);
      if (slot.vc >= vcs() || !can_accept(slot.vc))
        throw snapshot::SnapshotError(
            "input buffer snapshot: a VC holds more flits than its buffer");
      push(key, slot.vc, slot.flit, slot.arrived);
    }
  }
}

}  // namespace mmr
