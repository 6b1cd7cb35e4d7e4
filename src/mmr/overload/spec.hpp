// Overload-protection specs (DESIGN.md §9): the per-connection injection
// policer (`police=`) and the deterministic rogue-source inflater
// (`rogue=`).  Pure data; an empty spec never instantiates the machinery.
#pragma once

#include <cstdint>

#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/time.hpp"

namespace mmr::overload {

/// What happens to a flit that exceeds its connection's admitted envelope.
enum class OverloadPolicy : std::uint8_t {
  kDrop,    ///< discard at the NIC injection point
  kShape,   ///< delay in a bounded penalty queue until tokens accrue
  kDemote,  ///< inject, but reclassified to best-effort priority
};

[[nodiscard]] const char* to_string(OverloadPolicy p);

/// Policer + saturation-watchdog configuration (`police=` override).  Token
/// buckets price each QoS connection's admitted contract: CBR at its mean
/// slots, VBR at the concurrency-discounted envelope with peak-slot depth.
struct PoliceSpec : spec::Parsed<PoliceSpec> {
  OverloadPolicy policy = OverloadPolicy::kDemote;

  double burst_rounds = 2.0;       ///< CBR bucket depth, rounds of mean slots
  double vbr_burst_rounds = 24.0;  ///< VBR bucket depth, rounds of peak slots
  std::uint32_t penalty_flits = 64;  ///< shape queue bound per connection
  double qos_deadline_cycles = kQosDeadlineCycles;  ///< violation threshold

  // Saturation watchdog (staged degradation; 0 disables it).
  Cycle wd_window = 512;        ///< backlog sample period, cycles
  double wd_alpha = 0.25;       ///< EWMA smoothing of backlog-per-port
  double wd_high = 48.0;        ///< escalate above this backlog/port (flits)
  double wd_low = 12.0;         ///< recover below this backlog/port (flits)
  std::uint32_t wd_escalate_after = 4;  ///< windows over high before +1 stage
  std::uint32_t wd_recover_after = 16;  ///< windows under low before -1 stage
  /// MMU escalation (flow=shared runs): an Xoff pause still open after this
  /// many cycles jumps the watchdog straight to kAlarm.  0 disables.
  Cycle wd_pause_limit = 0;

  static const spec::Grammar& grammar();
  bool operator==(const PoliceSpec&) const = default;

  /// Throws std::invalid_argument on nonsense combinations.
  void validate() const;
};

/// Rogue-source configuration (`rogue=` override): a deterministic subset of
/// QoS sources is wrapped to inflate past its declared rate.
struct RogueSpec : spec::Parsed<RogueSpec> {
  double fraction = 0.25;   ///< fraction of eligible QoS sources gone rogue
  std::uint32_t count = 0;  ///< absolute count; overrides fraction when > 0
  double scale = 3.0;       ///< sustained inflation factor (>= 1)

  // Optional periodic extra bursts on top of the sustained scale.
  double burst_scale = 1.0;  ///< multiplier during burst windows (>= 1)
  Cycle burst_period = 0;    ///< 0 = no bursts
  Cycle burst_len = 0;       ///< window length within each period

  std::uint64_t seed = 0x60609u;  ///< selection + burst-phase stream

  enum class Classes : std::uint8_t { kAny, kCbrOnly, kVbrOnly };
  Classes classes = Classes::kAny;

  static const spec::Grammar& grammar();
  bool operator==(const RogueSpec&) const = default;

  /// Throws std::invalid_argument on nonsense combinations.
  void validate() const;
};

}  // namespace mmr::overload
