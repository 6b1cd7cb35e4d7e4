// Per-connection token-bucket policer at the NIC injection point.  Every QoS
// connection is measured against the contract admission control granted it
// (ConnectionDescriptor::slots_per_round / peak_slots_per_round); flits in
// excess of the envelope are dropped, shaped (delayed in a bounded penalty
// queue until tokens accrue), or demoted to best-effort priority, per the
// configured policy.  Best-effort connections have no contract and pass
// freely — until the saturation watchdog orders them shed.
//
// Contracts (see PoliceSpec):
//  * CBR — refill slots_per_round per round; depth = burst rounds of the
//    reservation.  A compliant CBR source emits at its exact declared IAT
//    and is never policed.
//  * VBR — refill mean + (peak - mean) / concurrency_factor slots per round
//    (the concurrency-discounted envelope admission rule (b) priced); depth
//    = vbr_burst rounds of the *peak* reservation, so declared-rate frame
//    bursts (BB injection at the workload peak, SR I-frames) pass while a
//    sustained liar drains the bucket and gets policed.
//
// All state is deterministic; the policer never consults an RNG.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mmr/qos/connection.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr::snapshot {
class Walker;
}

namespace mmr::overload {

/// Outcome of policing one flit at injection.
enum class Verdict : std::uint8_t {
  kPass,     ///< conforming: deposit as-is
  kDemoted,  ///< excess under the demote policy: deposit at BE priority
  kShaped,   ///< excess under the shape policy: held in the penalty queue
  kDropped,  ///< excess under the drop policy, penalty overflow, or shed BE
};

/// Per-traffic-class policing tallies (indexed by TrafficClass).
struct ClassTally {
  std::uint64_t conforming = 0;
  std::uint64_t dropped = 0;   ///< excess discarded (drop policy or clamp)
  std::uint64_t demoted = 0;   ///< excess reclassified to best-effort
  std::uint64_t shaped = 0;    ///< excess delayed via the penalty queue
  std::uint64_t penalty_overflow = 0;  ///< shape queue full: discarded
  std::uint64_t shed = 0;      ///< best-effort dropped by watchdog order

  friend bool operator==(const ClassTally&, const ClassTally&) = default;
};

class InjectionPolicer {
 public:
  InjectionPolicer(const ConnectionTable& table, const SimConfig& config,
                   const PoliceSpec& spec);

  /// Polices one generated flit (flit.connection selects the bucket).  On
  /// kShaped the policer keeps the flit; all other verdicts leave it with
  /// the caller.
  [[nodiscard]] Verdict police(const Flit& flit, Cycle now);

  /// Appends shaped flits whose tokens have accrued by `now`, in admission
  /// (FIFO per connection, deterministic across connections) order.  Call
  /// once per cycle.
  void release_due(Cycle now, std::vector<Flit>& out);

  // Watchdog controls -------------------------------------------------------
  void set_shed_best_effort(bool on) { shed_best_effort_ = on; }
  void set_clamp_noncompliant(bool on) { clamp_noncompliant_ = on; }
  [[nodiscard]] bool shedding() const { return shed_best_effort_; }
  [[nodiscard]] bool clamping() const { return clamp_noncompliant_; }

  // ECN reaction -------------------------------------------------------------
  /// Scales a connection's refill rate by `factor` in (0, 1] — the token
  /// bucket's contribution to congestion backoff (sources stretch their IATs
  /// via TrafficSource::throttle; the bucket shrinks in step so the shaped
  /// envelope tracks the throttled source instead of policing it).  1.0
  /// restores the admitted contract exactly.
  void set_rate_factor(ConnectionId id, double factor);
  [[nodiscard]] double rate_factor(ConnectionId id) const;

  // Introspection -----------------------------------------------------------
  [[nodiscard]] const PoliceSpec& spec() const { return spec_; }
  [[nodiscard]] const ClassTally& tally(TrafficClass cls) const {
    return tallies_[static_cast<std::size_t>(cls)];
  }
  /// Policed actions (drops + demotions + overflow) per connection.
  [[nodiscard]] const std::vector<std::uint64_t>& policed_per_connection()
      const {
    return policed_per_connection_;
  }
  /// Connections that have ever exceeded their contract.
  [[nodiscard]] std::uint32_t noncompliant_connections() const;
  /// Flits currently held in penalty queues (counts toward backlog).
  [[nodiscard]] std::uint64_t penalty_backlog() const {
    return penalty_backlog_;
  }
  [[nodiscard]] double tokens(ConnectionId id) const;

  void check_invariants() const;

  /// Checkpoint walk: token buckets (penalty flits included), tallies, and
  /// watchdog-applied switches.
  void snap(snapshot::Walker& w);

 private:
  struct Bucket {
    double tokens = 0.0;
    double rate = 0.0;       ///< envelope refill, flits per flit cycle
    double mean_rate = 0.0;  ///< clamped refill, flits per flit cycle
    double depth = 0.0;      ///< burst tolerance, flits
    Cycle last_refill = 0;
    double ecn_factor = 1.0;   ///< ECN backoff scale on the refill rate
    std::deque<Flit> penalty;  ///< shape policy: delayed excess
    bool noncompliant = false;
    bool qos = false;
    std::uint8_t cls = 0;  ///< TrafficClass index
  };

  void refill(Bucket& bucket, Cycle now) const;
  [[nodiscard]] double depth_of(const Bucket& bucket) const;

  PoliceSpec spec_;
  std::vector<Bucket> buckets_;  ///< indexed by ConnectionId
  ClassTally tallies_[3];
  std::vector<std::uint64_t> policed_per_connection_;
  std::vector<std::uint32_t> shapers_;  ///< connections with queued penalty
  std::uint64_t penalty_backlog_ = 0;
  bool shed_best_effort_ = false;
  bool clamp_noncompliant_ = false;
};

}  // namespace mmr::overload
