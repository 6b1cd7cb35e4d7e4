// Simulation-level invariant auditor (opt-in via the `audit=` SimConfig
// override), one per router.  Piggybacks on the router tick: cheap
// departure-stream checks every cycle (per-VC FIFO order, one flit per port,
// departed-count reconciliation) and a full credit-conservation +
// bandwidth-accounting sweep every `audit_every` cycles, on host links and
// inter-router channels alike — the same conservation law the fault layer's
// credit-resync watchdog enforces, factored into credit_accounted_slots() so
// both use one definition.  Violations abort via MMR_ASSERT like every other
// contract check in the engine.
//
// This file lives in mmr/audit but is compiled into mmr_core (see
// src/CMakeLists.txt): the auditor needs the router/NIC/link types, and
// mmr_audit proper must stay a pure arbiter-layer library.
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/router/credits.hpp"
#include "mmr/router/link.hpp"
#include "mmr/router/nic.hpp"
#include "mmr/router/router.hpp"
#include "mmr/sim/config.hpp"

namespace mmr::mmu {
class SharedBufferMmu;
}  // namespace mmr::mmu

namespace mmr::snapshot {
class Walker;
}

namespace mmr::audit {

/// Buffer slots of (channel, vc) that are accounted for: available credits,
/// credits travelling back, flits on the wire, and `buffered`, the VC's
/// flits inside the downstream router wherever its queue discipline holds
/// them (MmrRouter::vc_occupancy()).  Conservation demands this equals
/// CreditManager::capacity_per_vc(); the fault layer's resync watchdog
/// treats a persistent deficit as a leak.
[[nodiscard]] std::uint32_t credit_accounted_slots(const CreditManager& credits,
                                                   const LinkPipeline& pipe,
                                                   std::uint32_t buffered,
                                                   std::uint32_t vc);

/// Runtime invariant auditor of one router and the links feeding it.
class SimAuditor {
 public:
  /// What fills one input link: the upstream credit loop and the wire, plus
  /// the NIC on a host-facing link (null on an inter-router channel).
  struct Feed {
    const CreditManager* credits = nullptr;
    const LinkPipeline* pipe = nullptr;
    const Nic* nic = nullptr;
  };

  /// `config.audit_every` sets the sweep period (the caller only constructs
  /// the auditor when it is >= 1); `feeds` holds one Feed per input port.
  SimAuditor(const SimConfig& config, std::vector<Feed> feeds);

  /// Departure-stream checks, called right after the router's step with
  /// that cycle's departures.  Aborts (MMR_ASSERT) on any violation.
  void on_departures(Cycle now, const MmrRouter& router,
                     const std::vector<MmrRouter::Departure>& departures);

  [[nodiscard]] bool sweep_due(Cycle now) const { return now % period_ == 0; }

  /// The full sweep: credit conservation on every input link, NIC and
  /// router flit accounting and, when `mmu` is non-null (flow=shared), MMU
  /// pool conservation.  `exact` = false under a fault plan, whose lost
  /// flits and credits leave deficits for the resync watchdog: conservation
  /// then bounds the accounted slots from above.
  void sweep(Cycle now, const MmrRouter& router,
             const mmu::SharedBufferMmu* mmu, bool exact);

  [[nodiscard]] std::uint64_t cycles_audited() const { return cycles_; }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }

  /// Checkpoint walk: departure tails and counters.  Without this a resumed
  /// run's auditor would start blank and flag the first departure of every
  /// in-flight connection as an order violation.
  void snap(mmr::snapshot::Walker& w);

 private:
  struct VcTail {
    ConnectionId connection = kInvalidConnection;
    std::uint64_t seq = 0;
  };

  std::uint32_t ports_;
  std::uint32_t vcs_;
  std::uint32_t period_;
  std::vector<Feed> feeds_;
  std::vector<VcTail> tails_;  ///< (input * vcs + vc) -> last departure
  std::uint64_t departed_seen_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t sweeps_ = 0;
  std::vector<std::uint8_t> input_used_;   ///< per-cycle scratch
  std::vector<std::uint8_t> output_used_;  ///< per-cycle scratch
};

}  // namespace mmr::audit
