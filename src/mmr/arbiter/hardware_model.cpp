#include "mmr/arbiter/hardware_model.hpp"

#include <bit>
#include <stdexcept>

#include "mmr/arbiter/factory.hpp"
#include "mmr/sim/assert.hpp"

namespace mmr {

namespace hw {

namespace {

double log2ceil(std::uint32_t x) {
  return static_cast<double>(std::bit_width(x == 0 ? 1u : x - 1u));
}

}  // namespace

// Ripple blocks with carry-lookahead-ish delay: area linear in width,
// delay logarithmic (realistic for synthesized comparators/adders).
HardwareEstimate comparator(std::uint32_t bits) {
  return {4.0 * bits, 2.0 + log2ceil(bits)};
}

HardwareEstimate adder(std::uint32_t bits) {
  return {5.0 * bits, 2.0 + log2ceil(bits)};
}

HardwareEstimate max_tree(std::uint32_t leaves, std::uint32_t bits) {
  MMR_ASSERT(leaves >= 1);
  if (leaves == 1) return {0.0, 0.0};
  const double stages = log2ceil(leaves);
  const HardwareEstimate cmp = comparator(bits);
  // One comparator + a bits-wide 2:1 mux (3 GE/bit) per internal node.
  const double node_area = cmp.gate_equivalents + 3.0 * bits;
  return {(static_cast<double>(leaves) - 1.0) * node_area,
          stages * (cmp.critical_path_gates + 1.0)};
}

HardwareEstimate priority_encoder(std::uint32_t inputs) {
  // Programmable priority encoder (iSLIP's grant/accept arbiters).
  return {6.0 * inputs, 2.0 * log2ceil(inputs) + 2.0};
}

HardwareEstimate barrel_shifter(std::uint32_t bits) {
  const double stages = log2ceil(bits);
  return {3.0 * bits * stages, stages};
}

HardwareEstimate array_divider(std::uint32_t bits) {
  // Restoring array divider: bits^2 controlled-subtract cells, and the
  // borrow chain makes the delay quadratic-ish — this is what makes IABP
  // "hardly fit into our fast, compact router" (Section 3.1).
  const double cells = static_cast<double>(bits) * bits;
  return {6.0 * cells, 1.5 * static_cast<double>(bits) * bits / 4.0};
}

}  // namespace hw

HardwareEstimate estimate_arbiter(const std::string& name,
                                  std::uint32_t ports, std::uint32_t levels,
                                  std::uint32_t priority_bits) {
  MMR_ASSERT(ports >= 2);
  MMR_ASSERT(levels >= 1);
  const double p = ports;
  const double l = levels;

  // wfa and wfa-fixed synthesise the same crosspoint array; the rotating
  // corner adds a row-select barrel stage.
  if (name == "wfa" || name == "wfa-fixed" || name == "wwfa") {
    // One arbitration cell per crosspoint (~6 GE: request/grant logic);
    // the wave crosses 2P-1 (plain) or P (wrapped, plus the rotating
    // start mux) cell rows, 2 gate delays per cell.
    const double cells = p * p;
    const double rows = name == "wwfa" ? p : 2.0 * p - 1.0;
    const double mux = name == "wwfa" ? 3.0 * p * p : 0.0;  // wrap select
    const double rotate = name == "wfa" ? 3.0 * p * p : 0.0;  // corner select
    return {6.0 * cells + mux + rotate, 2.0 * rows};
  }
  if (name == "coa" || name == "coa-np") {
    // Selection matrix: L*P candidate registers feed (a) the conflict
    // vector — per (level, output) a P-input population count — and (b) a
    // per-output max-priority tree; port ordering is a min-tree over P
    // outputs keyed by (level, conflict).  Matching iterates: each grant
    // re-runs ordering + arbitration; worst case P sequential grants.
    const std::uint32_t cnt_bits =
        static_cast<std::uint32_t>(hw::log2ceil(ports + 1)) + 1;
    const HardwareEstimate conflict =
        HardwareEstimate{l * p * (hw::adder(cnt_bits).gate_equivalents * p /
                                  2.0),
                         hw::log2ceil(ports) *
                             hw::adder(cnt_bits).critical_path_gates};
    const HardwareEstimate ordering = hw::max_tree(
        ports, cnt_bits + static_cast<std::uint32_t>(hw::log2ceil(levels)) +
                   1);
    // coa-np replaces the per-output priority tree with a random pick
    // (LFSR + encoder) — the ablation's hardware saving.
    const HardwareEstimate arbitration =
        name != "coa-np" ? hw::max_tree(ports * levels, priority_bits)
                         : hw::priority_encoder(ports * levels) +
                               HardwareEstimate{10.0, 0.0};
    HardwareEstimate total = conflict;
    total.gate_equivalents += p * arbitration.gate_equivalents +
                              ordering.gate_equivalents;
    // Sequential grants: P iterations of (ordering + arbitration).
    total.critical_path_gates =
        conflict.critical_path_gates +
        p * (ordering.critical_path_gates + arbitration.critical_path_gates);
    return total;
  }
  // iSLIP and PIM cost the simulator's own iteration budget: one grant and
  // one accept encoder traversal per iteration.
  if (name == "islip" || name == "islip1") {
    const double iterations = arbiter_iterations(name, ports);
    const HardwareEstimate enc = hw::priority_encoder(ports);
    // P grant + P accept encoders, plus pointer registers (~8 GE each).
    return {2.0 * p * enc.gate_equivalents + 16.0 * p,
            iterations * 2.0 * enc.critical_path_gates};
  }
  if (name == "rr") {
    // One grant/accept round of the iSLIP datapath: the same P+P encoder
    // banks and pointer registers, one traversal of the decision path.
    const HardwareEstimate enc = hw::priority_encoder(ports);
    return {2.0 * p * enc.gate_equivalents + 16.0 * p,
            2.0 * enc.critical_path_gates};
  }
  if (name == "pim" || name == "pim1") {
    const double iterations = arbiter_iterations(name, ports);
    const HardwareEstimate enc = hw::priority_encoder(ports);
    // Like iSLIP but with per-port LFSRs (~10 GE) instead of pointers.
    return {2.0 * p * enc.gate_equivalents + 10.0 * p,
            iterations * 2.0 * enc.critical_path_gates};
  }
  if (name == "greedy") {
    // Global sort of L*P candidates by priority: a bitonic network.
    const double n = l * p;
    const double stages = hw::log2ceil(static_cast<std::uint32_t>(n)) *
                          (hw::log2ceil(static_cast<std::uint32_t>(n)) + 1) /
                          2.0;
    const HardwareEstimate cmp = hw::comparator(priority_bits);
    return {n / 2.0 * stages * (cmp.gate_equivalents + 6.0 * priority_bits),
            stages * (cmp.critical_path_gates + 1.0) + 2.0 * p};
  }
  if (name == "maxmatch") {
    // Augmenting-path search is inherently sequential and unbounded at
    // router speed: flagged as an oracle.
    HardwareEstimate estimate{1e9, 1e9, false};
    return estimate;
  }
  throw std::invalid_argument("no hardware model for arbiter: " + name);
}

HardwareEstimate estimate_priority_logic(PriorityScheme scheme,
                                         std::uint32_t counter_bits,
                                         std::uint32_t priority_bits) {
  // The queue-age counter increments in a registered stage of its own, so
  // it contributes area but not decision-path delay.
  const HardwareEstimate counter{hw::adder(counter_bits).gate_equivalents,
                                 0.0};
  switch (scheme) {
    case PriorityScheme::kSiabp: {
      // First-new-bit detector (XOR against the remembered mask) and one
      // barrel shifter on the priority register: "just a shifter and some
      // combinatorial logic".
      const HardwareEstimate detect{3.0 * counter_bits, 2.0};
      const HardwareEstimate shift = hw::barrel_shifter(priority_bits);
      return counter + detect + shift;
    }
    case PriorityScheme::kIabp: {
      // The divider computing delay / IAT, plus floating-point style
      // normalisation — "hardware implementations of dividers are slow and
      // expensive, and hardly fit into our fast, compact router".
      const HardwareEstimate normalize{
          4.0 * priority_bits,
          2.0 * hw::log2ceil(priority_bits)};
      return counter + hw::array_divider(priority_bits) + normalize;
    }
    case PriorityScheme::kFifoAge:
      return counter;  // just the counter
    case PriorityScheme::kStatic:
      return {8.0, 0.0};  // a register
  }
  MMR_ASSERT_MSG(false, "unreachable priority scheme");
  return {};
}

}  // namespace mmr
