#include "mmr/router/voq.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

VoqMemory::VoqMemory(std::uint32_t outputs, std::uint32_t vcs,
                     std::uint32_t capacity_per_vc)
    : capacity_(capacity_per_vc),
      queues_(outputs),
      vc_count_(vcs, 0),
      occupied_pos_(outputs, -1) {
  MMR_ASSERT(outputs > 0);
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(capacity_per_vc > 0);
}

bool VoqMemory::can_accept(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return vc_count_[vc] < capacity_;
}

void VoqMemory::push(std::uint32_t output, std::uint32_t vc, const Flit& flit,
                     Cycle now) {
  MMR_ASSERT(output < outputs());
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(can_accept(vc),
                 "VOQ overflow: credit flow control was violated");
  if (queues_[output].empty()) {
    occupied_pos_[output] = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(output);
  }
  queues_[output].push_back({flit, now, vc});
  ++vc_count_[vc];
  ++total_;
}

bool VoqMemory::empty(std::uint32_t output) const {
  MMR_ASSERT(output < outputs());
  return queues_[output].empty();
}

std::uint32_t VoqMemory::occupancy(std::uint32_t output) const {
  MMR_ASSERT(output < outputs());
  return static_cast<std::uint32_t>(queues_[output].size());
}

const VoqMemory::Slot& VoqMemory::head(std::uint32_t output) const {
  MMR_ASSERT(output < outputs());
  MMR_ASSERT(!queues_[output].empty());
  return queues_[output].front();
}

VoqMemory::Slot VoqMemory::pop(std::uint32_t output) {
  MMR_ASSERT(output < outputs());
  MMR_ASSERT(!queues_[output].empty());
  Slot slot = queues_[output].front();
  queues_[output].pop_front();
  MMR_ASSERT(vc_count_[slot.vc] > 0);
  --vc_count_[slot.vc];
  --total_;
  if (queues_[output].empty()) unlist(output);
  return slot;
}

void VoqMemory::unlist(std::uint32_t output) {
  const auto pos = static_cast<std::size_t>(occupied_pos_[output]);
  const std::uint32_t moved = occupied_.back();
  occupied_[pos] = moved;
  occupied_pos_[moved] = static_cast<std::int32_t>(pos);
  occupied_.pop_back();
  occupied_pos_[output] = -1;
}

void VoqMemory::drain_vc(std::uint32_t vc, std::vector<Flit>& out) {
  MMR_ASSERT(vc < vcs());
  std::uint32_t drained = 0;
  for (std::uint32_t output = 0; output < outputs(); ++output) {
    std::deque<Slot>& queue = queues_[output];
    const auto kept =
        std::stable_partition(queue.begin(), queue.end(),
                              [vc](const Slot& slot) { return slot.vc != vc; });
    if (kept == queue.end()) continue;
    drained += static_cast<std::uint32_t>(queue.end() - kept);
    for (auto it = kept; it != queue.end(); ++it) out.push_back(it->flit);
    queue.erase(kept, queue.end());
    if (queue.empty()) unlist(output);
  }
  vc_count_[vc] -= drained;
  total_ -= drained;
}

std::uint32_t VoqMemory::vc_occupancy(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return vc_count_[vc];
}

void VoqMemory::check_invariants() const {
  std::uint64_t counted = 0;
  std::vector<std::uint32_t> per_vc(vc_count_.size(), 0);
  for (std::uint32_t output = 0; output < outputs(); ++output) {
    counted += queues_[output].size();
    for (const Slot& slot : queues_[output]) ++per_vc[slot.vc];
    const bool listed = occupied_pos_[output] != -1;
    MMR_ASSERT(listed == !queues_[output].empty());
    if (listed) {
      const auto pos = static_cast<std::size_t>(occupied_pos_[output]);
      MMR_ASSERT(pos < occupied_.size());
      MMR_ASSERT(occupied_[pos] == output);
    }
  }
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    MMR_ASSERT(per_vc[vc] == vc_count_[vc]);
    MMR_ASSERT(vc_count_[vc] <= capacity_);
  }
  MMR_ASSERT(counted == total_);
  MMR_ASSERT(occupied_.size() <= outputs());
}

void VoqMemory::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, queues_, [](snapshot::Walker& v,
                                       std::deque<Slot>& q) {
    snapshot::walk_deque(v, q, [](snapshot::Walker& u, Slot& slot) {
      snap_flit(u, slot.flit);
      snapshot::value(u, slot.arrived);
      snapshot::value(u, slot.vc);
    });
  });
  snapshot::walk_vector_pod(w, vc_count_);
  snapshot::walk_vector_pod(w, occupied_);
  snapshot::walk_vector_pod(w, occupied_pos_);
  snapshot::value(w, total_);
}

}  // namespace mmr
