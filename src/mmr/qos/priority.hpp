// Priority biasing functions for link scheduling (Section 3.1).
//
// The key idea: a head flit's priority relates the QoS a connection
// *requested* (its bandwidth) to the QoS it is *receiving* (its queuing
// delay), so priorities grow as flits wait, and grow faster for
// high-bandwidth connections.
//
//  * IABP  — priority = queuing_delay / IAT (theoretical; needs a divider).
//  * SIABP — priority starts at the connection's reserved slots/round and is
//    doubled every time a new bit of the queuing-delay counter is set, i.e.
//    effective priority = slots << bit_width(age).  Hardware: one shifter.
//  * FIFO-age — age only (ignores bandwidth): ablation.
//  * Static — slots only (ignores waiting): ablation.
//
// Ages are counted in *router* (phit) cycles, as in the hardware.
#pragma once

#include <bit>
#include <cstdint>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/sim/config.hpp"

namespace mmr {

/// Per-connection constants the biasing functions need, precomputed at
/// connection setup.
struct QosParams {
  std::uint32_t slots_per_round = 1;  ///< SIABP initial priority
  double iat_router_cycles = 1.0;     ///< IABP denominator
};

/// Saturation ceiling: far above any realistic bias yet small enough that
/// priorities can be added without overflow in diagnostics.
inline constexpr Priority kPriorityCap = Priority{1} << 48;

/// SIABP shift count for a given age: the number of bits of the queuing
/// delay counter that have been set since it was last reset.
[[nodiscard]] inline std::uint32_t siabp_shift(
    std::uint64_t age_router_cycles) {
  // bit_width(0) == 0: a flit that has not waited keeps its initial value.
  return static_cast<std::uint32_t>(std::bit_width(age_router_cycles));
}

/// SIABP priority with saturation (the hardware register is finite; we
/// saturate at 2^48 so comparisons never overflow when summed).  Inline:
/// link scheduling evaluates it for every queue head of every cycle.
[[nodiscard]] inline Priority siabp_priority(std::uint32_t slots_per_round,
                                             std::uint64_t age_router_cycles) {
  MMR_ASSERT(slots_per_round > 0);
  const std::uint32_t shift = siabp_shift(age_router_cycles);
  if (shift >= 48) return kPriorityCap;
  const Priority biased = static_cast<Priority>(slots_per_round) << shift;
  return biased < kPriorityCap ? biased : kPriorityCap;
}

/// IABP priority scaled to an integer (x 2^16) so that all schemes share the
/// Priority type.  A floating divider in hardware terms.
[[nodiscard]] Priority iabp_priority(double iat_router_cycles,
                                     std::uint64_t age_router_cycles);

/// Evaluates the configured scheme.
class PriorityFunction {
 public:
  explicit PriorityFunction(PriorityScheme scheme) : scheme_(scheme) {}

  [[nodiscard]] PriorityScheme scheme() const { return scheme_; }

  [[nodiscard]] Priority operator()(const QosParams& qos,
                                    std::uint64_t age_router_cycles) const {
    if (scheme_ == PriorityScheme::kSiabp)  // the paper's scheme, inline
      return siabp_priority(qos.slots_per_round, age_router_cycles);
    return ablation(qos, age_router_cycles);
  }

 private:
  /// Every scheme but SIABP.
  [[nodiscard]] Priority ablation(const QosParams& qos,
                                  std::uint64_t age_router_cycles) const;

  PriorityScheme scheme_;
};

}  // namespace mmr
