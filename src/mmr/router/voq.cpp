#include "mmr/router/voq.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

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

VoqScheduler::VoqScheduler(std::uint32_t input_port, std::uint32_t levels,
                           PriorityFunction priority,
                           std::uint32_t phits_per_flit,
                           std::vector<QosParams> qos_of_vc)
    : input_port_(input_port),
      levels_(levels),
      priority_(priority),
      phits_per_flit_(phits_per_flit),
      qos_of_vc_(std::move(qos_of_vc)) {
  MMR_ASSERT(levels_ >= 1);
  MMR_ASSERT(phits_per_flit_ >= 1);
}

void VoqScheduler::set_vc(std::uint32_t vc, QosParams qos) {
  MMR_ASSERT(vc < qos_of_vc_.size());
  qos_of_vc_[vc] = qos;
}

Priority VoqScheduler::head_priority(const VoqMemory& voq,
                                     std::uint32_t output, Cycle now) const {
  const VoqMemory::Slot& slot = voq.head(output);
  MMR_ASSERT(slot.vc < qos_of_vc_.size());
  MMR_ASSERT(slot.arrived <= now);
  const std::uint64_t age_router_cycles =
      (now - slot.arrived) * phits_per_flit_;
  const QosParams& qos =
      slot.flit.demoted ? demoted_qos_ : qos_of_vc_[slot.vc];
  return priority_(qos, age_router_cycles);
}

void VoqScheduler::select(const VoqMemory& voq, Cycle now, CandidateSet& out,
                          const Eligibility* eligible) const {
  struct Entry {
    Priority priority;
    Cycle arrived;
    std::uint32_t vc;
    std::uint32_t output;
  };
  // Top-L selection with the link scheduler's comparator: the head flit's
  // VC breaks ties exactly as it would competing from a per-VC queue.
  Entry best[64];
  MMR_ASSERT_MSG(levels_ <= 64, "candidate levels beyond selection buffer");
  std::uint32_t filled = 0;

  auto better = [](const Entry& a, const Entry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.arrived != b.arrived) return a.arrived < b.arrived;
    return a.vc < b.vc;
  };

  for (std::uint32_t output : voq.occupied_outputs()) {
    const VoqMemory::Slot& slot = voq.head(output);
    if (eligible != nullptr && !(*eligible)(slot.vc)) continue;
    Entry entry{head_priority(voq, output, now), slot.arrived, slot.vc,
                output};
    if (filled == levels_ && !better(entry, best[filled - 1])) continue;
    std::uint32_t pos = std::min(filled, levels_ - 1);
    if (filled < levels_) ++filled;
    while (pos > 0 && better(entry, best[pos - 1])) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = entry;
  }

  for (std::uint32_t level = 0; level < filled; ++level) {
    Candidate candidate;
    candidate.input = static_cast<std::uint16_t>(input_port_);
    candidate.output = static_cast<std::uint16_t>(best[level].output);
    candidate.level = static_cast<std::uint8_t>(level);
    candidate.vc = best[level].vc;
    candidate.priority = best[level].priority;
    out.add(candidate);
    MMR_TRACE_EVENT(trace::candidate_event(now, candidate.input,
                                           candidate.output, candidate.vc,
                                           candidate.level,
                                           candidate.priority));
  }
}

void VoqScheduler::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, qos_of_vc_, [](snapshot::Walker& v, QosParams& q) {
    snapshot::value(v, q.slots_per_round);
    snapshot::value(v, q.iat_router_cycles);
  });
  snapshot::value(w, demoted_qos_.slots_per_round);
  snapshot::value(w, demoted_qos_.iat_router_cycles);
}

}  // namespace mmr
