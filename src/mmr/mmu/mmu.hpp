// SharedBufferMmu: shared-buffer admission control and backpressure for the
// single-router engine (`flow=shared`).  Pure accounting — the MMU holds no
// flits itself; the simulation consults it when a flit arrives at the router
// (admit) and when one departs through the crossbar (release), and carries
// out the decisions it returns:
//
//   * admit() charges the flit to the first pool with room, in order
//     reserved -> shared (dynamic threshold) -> headroom (lossless classes
//     only), or reports a drop;
//   * a port whose buffered-flit usage crosses Xoff (or that had to touch
//     headroom) asks for a pause frame; the simulation delivers it to the
//     NIC after the credit channel's propagation latency, during which
//     headroom absorbs the flits already committed to the wire — with
//     correctly sized headroom a lossless-class flit is NEVER dropped;
//   * shared-pool admissions draw an ECN mark with probability ramping from
//     0 at kmin to pmax at kmax (1 beyond kmax); the EcnReactor below turns
//     marks into per-connection rate factors that traffic sources and the
//     injection policer apply.
//
// Release charges back in the order shared -> reserved -> headroom.  The
// headroom pool is per-port (not per-class), so freeing it last is what
// keeps every per-(port, class) counter non-negative: while a class still
// holds reserved/shared tokens those are returned first, and once both are
// exhausted every remaining buffered flit of that class is headroom-
// accounted by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/mmu/spec.hpp"
#include "mmr/qos/connection.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/sim/cycle_stats.hpp"
#include "mmr/sim/time.hpp"

namespace mmr::snapshot {
class Walker;
}

namespace mmr::mmu {

/// Pool a flit was charged to at admission.
enum class AdmitPool : std::uint8_t {
  kReserved,
  kShared,
  kHeadroom,
  kDropped,
};

struct AdmitResult {
  AdmitPool pool = AdmitPool::kDropped;
  bool marked = false;     ///< ECN mark drawn on shared-pool occupancy
  bool fire_xoff = false;  ///< emit a pause frame for this port now
};

struct ReleaseResult {
  bool fire_xon = false;  ///< emit a resume frame for this port now
  std::uint64_t paused_cycles = 0;  ///< pause duration closed by this Xon
};

class SharedBufferMmu {
 public:
  /// `spec` may be unresolved; geometry defaults are derived from `config`.
  /// `router` picks the mark stream, so routers of a network draw
  /// independently.
  SharedBufferMmu(const MmuSpec& spec, const SimConfig& config,
                  std::uint32_t router = 0);

  /// Charges one arriving flit.  `cls` is the flit's loss class: CBR/VBR are
  /// lossless, best-effort (and policed-demoted excess) is lossy.
  [[nodiscard]] AdmitResult admit(std::uint32_t port, TrafficClass cls,
                                  Cycle now);

  /// Releases one departing flit's slot and re-evaluates the port's pause.
  [[nodiscard]] ReleaseResult release(std::uint32_t port, TrafficClass cls,
                                      Cycle now);

  /// Samples the shared-pool occupancy once per spec().sample_every cycles.
  void on_cycle(Cycle now);

  // Introspection ------------------------------------------------------------
  [[nodiscard]] const MmuSpec& spec() const { return spec_; }
  /// Flits currently charged to any pool == flits buffered in the router.
  [[nodiscard]] std::uint64_t occupancy() const { return occupancy_; }
  [[nodiscard]] std::uint64_t shared_used() const { return shared_used_; }
  /// Buffered flits charged to `port` across all pools.
  [[nodiscard]] std::uint64_t port_usage(std::uint32_t port) const;
  [[nodiscard]] std::uint32_t headroom_used(std::uint32_t port) const;
  /// MMU-side pause decision state (the NIC observes it one pause-frame
  /// propagation later).
  [[nodiscard]] bool pause_wanted(std::uint32_t port) const;
  /// Longest currently-open pause, 0 when no port is paused.
  [[nodiscard]] Cycle longest_open_pause(Cycle now) const;

  // Lifetime counters.
  [[nodiscard]] std::uint64_t admitted_reserved() const {
    return admitted_reserved_;
  }
  [[nodiscard]] std::uint64_t admitted_shared() const {
    return admitted_shared_;
  }
  [[nodiscard]] std::uint64_t admitted_headroom() const {
    return admitted_headroom_;
  }
  [[nodiscard]] std::uint64_t drops_lossless() const {
    return drops_lossless_;
  }
  [[nodiscard]] std::uint64_t drops_lossy() const { return drops_lossy_; }
  [[nodiscard]] std::uint64_t pause_events() const { return pause_events_; }
  [[nodiscard]] std::uint64_t resume_events() const { return resume_events_; }
  /// Pause cycles summed over ports; open pauses are closed at `now`.
  [[nodiscard]] std::uint64_t pause_cycles_total(Cycle now) const;
  /// Longest single pause so far; open pauses are measured at `now`.
  [[nodiscard]] std::uint64_t pause_cycles_max(Cycle now) const;
  [[nodiscard]] std::uint32_t headroom_highwater() const {
    return headroom_highwater_;
  }
  [[nodiscard]] std::uint64_t pool_highwater() const { return pool_highwater_; }
  [[nodiscard]] std::uint64_t ecn_marked() const { return ecn_marked_; }
  [[nodiscard]] std::uint64_t ecn_eligible() const { return ecn_eligible_; }
  [[nodiscard]] const CycleStats& pool_occupancy() const {
    return pool_occupancy_;
  }

  void check_invariants() const;

  /// Checkpoint walk: pool accounting, pause state, the marking RNG lane,
  /// and lifetime counters.
  void snap(snapshot::Walker& w);

 private:
  struct PortClass {
    std::uint32_t reserved_used = 0;
    std::uint32_t shared_used = 0;
  };

  [[nodiscard]] PortClass& state(std::uint32_t port, TrafficClass cls);
  [[nodiscard]] const PortClass& state(std::uint32_t port,
                                       TrafficClass cls) const;
  [[nodiscard]] static bool lossless(TrafficClass cls) {
    return cls != TrafficClass::kBestEffort;
  }
  [[nodiscard]] double mark_probability() const;

  MmuSpec spec_;  ///< resolved
  std::uint32_t ports_;

  std::vector<PortClass> per_port_class_;  ///< [port * kClasses + class]
  std::vector<std::uint32_t> headroom_used_;
  std::uint64_t shared_used_ = 0;
  std::uint64_t occupancy_ = 0;

  std::vector<char> paused_;
  std::vector<Cycle> pause_started_;
  std::uint32_t paused_ports_ = 0;

  Rng mark_rng_;

  std::uint64_t admitted_reserved_ = 0;
  std::uint64_t admitted_shared_ = 0;
  std::uint64_t admitted_headroom_ = 0;
  std::uint64_t drops_lossless_ = 0;
  std::uint64_t drops_lossy_ = 0;
  std::uint64_t pause_events_ = 0;
  std::uint64_t resume_events_ = 0;
  std::uint64_t closed_pause_cycles_ = 0;
  std::uint64_t max_closed_pause_ = 0;
  std::uint32_t headroom_highwater_ = 0;
  std::uint64_t pool_highwater_ = 0;
  std::uint64_t ecn_marked_ = 0;
  std::uint64_t ecn_eligible_ = 0;
  CycleStats pool_occupancy_;
};

/// Turns ECN marks into per-connection injection rate factors in (0, 1]:
/// multiplicative cut on every mark, additive recovery towards 1.0 once per
/// recover window.  The reactor only computes factors; the simulation pushes
/// changes into TrafficSource::throttle() and
/// InjectionPolicer::set_rate_factor().
class EcnReactor {
 public:
  EcnReactor(std::size_t connections, const MmuSpec& resolved);

  /// Applies a mark's multiplicative cut; true when the factor changed.
  [[nodiscard]] bool on_mark(ConnectionId id);

  /// Additive recovery step, once per spec.ecn_recover cycles; appends every
  /// connection whose factor changed to `changed`.
  void on_cycle(Cycle now, std::vector<ConnectionId>& changed);

  [[nodiscard]] double factor(ConnectionId id) const;
  [[nodiscard]] std::uint64_t cuts() const { return cuts_; }

  void snap(snapshot::Walker& w);

 private:
  double cut_;
  double floor_;
  double step_;
  Cycle window_;
  std::vector<double> factors_;
  std::uint64_t cuts_ = 0;
};

}  // namespace mmr::mmu
