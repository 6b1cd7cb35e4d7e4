// Shared-buffer MMU configuration (`flow=` SimConfig override, DESIGN.md
// §12): `flow=shared` replaces the paper's dedicated per-VC buffers with one
// pool shared across VCs and ports — reserved quotas, dynamic-threshold
// admission, pause headroom, Xon/Xoff and ECN marking.  Pure data; an
// empty `flow=` (or "credit") never instantiates the MMU machinery.
#pragma once

#include <cstdint>

#include "mmr/sim/config.hpp"

namespace mmr::mmu {

/// Which flow-control regime the simulation runs.
enum class FlowMode : std::uint8_t {
  kCredit,  ///< dedicated per-VC buffers + credits (the paper's model)
  kShared,  ///< shared-buffer MMU with dynamic thresholds + Xon/Xoff + ECN
};

[[nodiscard]] const char* to_string(FlowMode m);

struct MmuSpec : spec::Parsed<MmuSpec> {
  FlowMode mode = FlowMode::kCredit;

  // Pool geometry (flits).  0 = derive a default from the SimConfig in
  // resolve(); see the field comments for the formulas.
  std::uint64_t pool_flits = 0;  ///< shared pool size (default 48 x ports)
  std::uint32_t reserved_per_class = 2;  ///< guaranteed flits / port / class
  std::uint32_t headroom_flits = 0;  ///< per-port pause absorption buffer
                                     ///< (default credit+link latency + 2)

  // Dynamic-threshold admission: a (port, class) may keep taking shared
  // slots while its usage < alpha x (free shared pool).
  double alpha = 1.0;      ///< QoS (lossless) classes
  double alpha_be = 0.25;  ///< best-effort (lossy) class

  // Xon/Xoff pause on per-port buffered-flit usage (hysteresis pair).
  std::uint32_t xoff_flits = 0;  ///< pause above (default max(8, pool/2P))
  std::uint32_t xon_flits = 0;   ///< resume at or below (default xoff / 2)

  // ECN-style marking on shared-pool occupancy: mark probability ramps
  // linearly from 0 at kmin to pmax at kmax and is 1 beyond kmax.
  bool ecn = true;
  std::uint64_t ecn_kmin = 0;  ///< default pool / 8
  std::uint64_t ecn_kmax = 0;  ///< default pool / 2
  double ecn_pmax = 0.1;

  // Reaction to marks (EcnReactor): multiplicative rate cut per mark,
  // additive recovery towards 1.0 every recover window.
  double ecn_cut = 0.5;           ///< factor *= cut on a mark
  double ecn_floor = 0.125;       ///< factor never drops below this
  Cycle ecn_recover = 1024;       ///< recovery period, cycles (0 = never)
  double ecn_step = 0.05;         ///< factor += step per recovery period

  Cycle sample_every = 64;  ///< shared-pool occupancy sampling period

  static const spec::Grammar& grammar();
  bool operator==(const MmuSpec&) const = default;

  /// kShared only: a copy with every derivable 0 replaced by its default
  /// for `config`.  Throws std::invalid_argument on nonsense combinations.
  [[nodiscard]] MmuSpec resolve(const SimConfig& config) const;

  /// Per-VC buffer/credit allowance of a resolved shared spec: a whole
  /// port's admission allowance, so the MMU, not credits, gates admission.
  [[nodiscard]] std::uint32_t vc_slots() const;
};

}  // namespace mmr::mmu
