// First-order hardware complexity model for the schedulers (the paper's
// future work: "it is necessary to perform an analysis of its hardware
// complexity", plus Section 3.1's SIABP-vs-IABP comparison, which reported
// ~10x silicon area and ~38x delay reduction from VHDL synthesis).
//
// The model counts structural building blocks (comparators, adders,
// encoders, crosspoint cells) in 2-input-gate equivalents (GE) and
// estimates the critical path in gate delays.  It is a first-order
// *structural* model — good for ranking algorithms and scaling trends, not
// a synthesis replacement; see DESIGN.md.
#pragma once

#include <cstdint>
#include <string>

#include "mmr/sim/config.hpp"

namespace mmr {

struct HardwareEstimate {
  double gate_equivalents = 0.0;    ///< area, 2-input gate equivalents
  double critical_path_gates = 0.0;  ///< delay, gate delays per decision
  bool line_rate_feasible = true;    ///< false for oracle-only algorithms

  [[nodiscard]] HardwareEstimate operator+(const HardwareEstimate& o) const {
    return {gate_equivalents + o.gate_equivalents,
            critical_path_gates + o.critical_path_gates,
            line_rate_feasible && o.line_rate_feasible};
  }
};

/// Complexity of one switch arbitration for any registered arbiter name
/// (arbiter_names()); iterative schemes cost arbiter_iterations(name, P)
/// rounds.  `priority_bits` sizes the comparators of priority-aware
/// schemes.
[[nodiscard]] HardwareEstimate estimate_arbiter(const std::string& name,
                                                std::uint32_t ports,
                                                std::uint32_t levels,
                                                std::uint32_t priority_bits);

/// Complexity of one priority-bias evaluation (per virtual channel) for a
/// link-scheduler biasing function; `counter_bits` sizes the queue-age
/// counter, `priority_bits` the priority register.
[[nodiscard]] HardwareEstimate estimate_priority_logic(
    PriorityScheme scheme, std::uint32_t counter_bits,
    std::uint32_t priority_bits);

// Exposed building blocks (unit-tested individually).
namespace hw {
[[nodiscard]] HardwareEstimate comparator(std::uint32_t bits);
[[nodiscard]] HardwareEstimate adder(std::uint32_t bits);
[[nodiscard]] HardwareEstimate max_tree(std::uint32_t leaves,
                                        std::uint32_t bits);
[[nodiscard]] HardwareEstimate priority_encoder(std::uint32_t inputs);
[[nodiscard]] HardwareEstimate barrel_shifter(std::uint32_t bits);
[[nodiscard]] HardwareEstimate array_divider(std::uint32_t bits);
}  // namespace hw

}  // namespace mmr
