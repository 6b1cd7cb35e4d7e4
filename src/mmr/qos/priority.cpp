#include "mmr/qos/priority.hpp"

#include <cmath>

#include "mmr/sim/assert.hpp"

namespace mmr {

Priority iabp_priority(double iat_router_cycles,
                       std::uint64_t age_router_cycles) {
  MMR_ASSERT(iat_router_cycles > 0.0);
  const double ratio =
      static_cast<double>(age_router_cycles) / iat_router_cycles;
  const double scaled = std::ceil(ratio * 65536.0);
  if (scaled >= static_cast<double>(kPriorityCap)) return kPriorityCap;
  // Floor at 1: an age-0 QoS flit must not tie with priority-0 best-effort
  // traffic in mixed comparisons (SIABP's floor is slots_per_round >= 1).
  return scaled < 1.0 ? Priority{1} : static_cast<Priority>(scaled);
}

Priority PriorityFunction::ablation(const QosParams& qos,
                                    std::uint64_t age_router_cycles) const {
  switch (scheme_) {
    case PriorityScheme::kSiabp:
      return siabp_priority(qos.slots_per_round, age_router_cycles);
    case PriorityScheme::kIabp:
      return iabp_priority(qos.iat_router_cycles, age_router_cycles);
    case PriorityScheme::kFifoAge:
      return age_router_cycles < kPriorityCap
                 ? static_cast<Priority>(age_router_cycles)
                 : kPriorityCap;
    case PriorityScheme::kStatic:
      return qos.slots_per_round;
  }
  MMR_ASSERT_MSG(false, "unreachable priority scheme");
  return 0;
}

}  // namespace mmr
