#include "mmr/router/cicq.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

CicqFabric::CicqFabric(std::uint32_t ports, std::uint32_t vcs,
                       const QdSpec& spec, Cycle credit_latency)
    : ports_(ports),
      spec_(spec),
      xp_(static_cast<std::size_t>(ports) * ports),
      xp_vc_count_(static_cast<std::size_t>(ports) * vcs, 0),
      input_ptr_(ports, 0),
      output_ptr_(ports, 0),
      burst_(static_cast<std::size_t>(ports) * ports, 0) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(spec_.discipline == QueueDiscipline::kCicq);
  spec_.validate();
  credits_.reserve(ports_);
  for (std::uint32_t input = 0; input < ports_; ++input) {
    // One credit pool per input, one "VC" per output, full crosspoint depth.
    credits_.emplace_back(ports_, spec_.crosspoint_flits, credit_latency);
    // Base regime: park everything beyond the single base credit.  Burst
    // stabilization (stab:1) hands the parked credits back per crosspoint
    // when its VOQ backs up.
    for (std::uint32_t output = 0; output < ports_; ++output) {
      credits_.back().reclaim(output, spec_.crosspoint_flits - 1);
    }
  }
}

void CicqFabric::tick(Cycle now) {
  for (CreditManager& credits : credits_) credits.tick(now);
}

void CicqFabric::drain_outputs(Cycle now, std::vector<Drained>& out,
                               std::vector<std::int32_t>& input_of_output,
                               const EligibilityMask& eligible) {
  input_of_output.assign(ports_, -1);
  const auto vcs = static_cast<std::uint32_t>(xp_vc_count_.size() / ports_);
  for (std::uint32_t output = 0; output < ports_; ++output) {
    for (std::uint32_t k = 0; k < ports_; ++k) {
      const std::uint32_t input = (output_ptr_[output] + k) % ports_;
      std::deque<InputBuffer::Slot>& fifo = xp_[xp_index(input, output)];
      if (fifo.empty()) continue;
      if (!eligible.eligible(input, fifo.front().vc, output)) continue;
      InputBuffer::Slot slot = fifo.front();
      fifo.pop_front();
      std::uint32_t& residency =
          xp_vc_count_[static_cast<std::size_t>(input) * vcs + slot.vc];
      MMR_ASSERT(residency > 0);
      --residency;
      --total_;
      credits_[input].release(output, now);
      input_of_output[output] = static_cast<std::int32_t>(input);
      out.push_back({input, output, slot.vc, slot.flit});
      MMR_TRACE_EVENT(trace::xp_grant_event(now, input, output, slot.vc,
                                            slot.flit.connection,
                                            slot.flit.seq, fifo.size()));
      output_ptr_[output] = (input + 1) % ports_;
      break;
    }
  }
}

void CicqFabric::drain_vc(std::uint32_t input, std::uint32_t vc, Cycle now,
                          std::vector<Flit>& out) {
  const auto vcs = static_cast<std::uint32_t>(xp_vc_count_.size() / ports_);
  std::uint32_t drained = 0;
  for (std::uint32_t output = 0; output < ports_; ++output) {
    std::deque<InputBuffer::Slot>& fifo = xp_[xp_index(input, output)];
    const auto kept = std::stable_partition(
        fifo.begin(), fifo.end(),
        [vc](const InputBuffer::Slot& s) { return s.vc != vc; });
    const auto count = static_cast<std::uint32_t>(fifo.end() - kept);
    for (auto it = kept; it != fifo.end(); ++it) out.push_back(it->flit);
    fifo.erase(kept, fifo.end());
    for (std::uint32_t i = 0; i < count; ++i)
      credits_[input].release(output, now);
    drained += count;
  }
  xp_vc_count_[static_cast<std::size_t>(input) * vcs + vc] -= drained;
  total_ -= drained;
}

void CicqFabric::fill_crosspoints(Cycle now, std::vector<InputBuffer>& voqs) {
  MMR_ASSERT(voqs.size() == ports_);
  const std::uint32_t vcs = static_cast<std::uint32_t>(
      xp_vc_count_.size() / ports_);
  for (std::uint32_t input = 0; input < ports_; ++input) {
    InputBuffer& voq = voqs[input];
    bool had_work = false;
    bool sent = false;
    for (std::uint32_t k = 0; k < ports_; ++k) {
      const std::uint32_t output = (input_ptr_[input] + k) % ports_;
      if (voq.empty(output)) continue;
      had_work = true;
      if (!credits_[input].has_credit(output)) continue;
      credits_[input].consume(output);
      InputBuffer::Slot slot = voq.pop(output);
      std::deque<InputBuffer::Slot>& fifo = xp_[xp_index(input, output)];
      MMR_ASSERT_MSG(fifo.size() < spec_.crosspoint_flits,
                     "crosspoint overflow: credit protocol was violated");
      fifo.push_back(slot);
      ++xp_vc_count_[static_cast<std::size_t>(input) * vcs + slot.vc];
      ++total_;
      ++transfers_;
      MMR_TRACE_EVENT(trace::xp_enqueue_event(now, input, output, slot.vc,
                                              slot.flit.connection,
                                              slot.flit.seq, fifo.size()));
      input_ptr_[input] = (output + 1) % ports_;
      sent = true;
      break;
    }
    if (had_work && !sent) ++credit_stalls_;
  }
}

void CicqFabric::update_stabilization(const std::vector<InputBuffer>& voqs) {
  if (!spec_.stabilize || spec_.crosspoint_flits <= 1) return;
  const std::uint32_t parked = spec_.crosspoint_flits - 1;
  for (std::uint32_t input = 0; input < ports_; ++input) {
    for (std::uint32_t output = 0; output < ports_; ++output) {
      std::uint8_t& burst = burst_[xp_index(input, output)];
      if (burst == 0) {
        if (voqs[input].occupancy(output) >= spec_.burst_threshold) {
          credits_[input].restore(output, parked);
          burst = 1;
          ++burst_activations_;
        }
      } else if (voqs[input].empty(output) &&
                 xp_[xp_index(input, output)].empty() &&
                 credits_[input].credits(output) == spec_.crosspoint_flits) {
        // The burst fully drained and every credit made it home: park the
        // extra depth again so idle crosspoints return to the base regime.
        credits_[input].reclaim(output, parked);
        burst = 0;
        ++burst_deactivations_;
      }
    }
  }
}

std::uint32_t CicqFabric::xp_occupancy(std::uint32_t input,
                                       std::uint32_t output) const {
  MMR_ASSERT(input < ports_ && output < ports_);
  return static_cast<std::uint32_t>(xp_[xp_index(input, output)].size());
}

std::uint32_t CicqFabric::vc_occupancy(std::uint32_t input,
                                       std::uint32_t vc) const {
  const std::uint32_t vcs =
      static_cast<std::uint32_t>(xp_vc_count_.size() / ports_);
  MMR_ASSERT(input < ports_ && vc < vcs);
  return xp_vc_count_[static_cast<std::size_t>(input) * vcs + vc];
}

const CreditManager& CicqFabric::credits(std::uint32_t input) const {
  MMR_ASSERT(input < ports_);
  return credits_[input];
}

void CicqFabric::check_invariants() const {
  const std::uint32_t vcs =
      static_cast<std::uint32_t>(xp_vc_count_.size() / ports_);
  std::uint64_t counted = 0;
  std::vector<std::uint32_t> per_vc(xp_vc_count_.size(), 0);
  for (std::uint32_t input = 0; input < ports_; ++input) {
    credits_[input].check_invariants();
    for (std::uint32_t output = 0; output < ports_; ++output) {
      const std::deque<InputBuffer::Slot>& fifo = xp_[xp_index(input, output)];
      MMR_ASSERT(fifo.size() <= spec_.crosspoint_flits);
      counted += fifo.size();
      for (const InputBuffer::Slot& slot : fifo) {
        ++per_vc[static_cast<std::size_t>(input) * vcs + slot.vc];
      }
      // Credit conservation per crosspoint: available + travelling back +
      // occupying a buffer slot always equals the active allotment.
      const std::uint32_t allotment =
          burst_[xp_index(input, output)] != 0 ? spec_.crosspoint_flits : 1;
      MMR_ASSERT(credits_[input].credits(output) +
                     credits_[input].pending_for(output) +
                     static_cast<std::uint32_t>(fifo.size()) ==
                 allotment);
    }
  }
  for (std::size_t i = 0; i < per_vc.size(); ++i) {
    MMR_ASSERT(per_vc[i] == xp_vc_count_[i]);
  }
  MMR_ASSERT(counted == total_);
}

void CicqFabric::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, xp_, [](snapshot::Walker& v,
                                   std::deque<InputBuffer::Slot>& q) {
    snapshot::walk_deque(v, q, [](snapshot::Walker& u,
                                  InputBuffer::Slot& slot) {
      snap_flit(u, slot.flit);
      snapshot::value(u, slot.arrived);
      snapshot::value(u, slot.vc);
    });
  });
  snapshot::walk_vector_pod(w, xp_vc_count_);
  for (CreditManager& credits : credits_) credits.snap(w);
  snapshot::walk_vector_pod(w, input_ptr_);
  snapshot::walk_vector_pod(w, output_ptr_);
  snapshot::walk_vector_pod(w, burst_);
  snapshot::value(w, total_);
  snapshot::value(w, transfers_);
  snapshot::value(w, credit_stalls_);
  snapshot::value(w, burst_activations_);
  snapshot::value(w, burst_deactivations_);
}

}  // namespace mmr
