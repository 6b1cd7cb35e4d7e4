// Staged saturation watchdog.  Samples the simulation-wide flit backlog once
// per wd_window cycles, smooths backlog-per-port with an EWMA, and walks a
// degradation ladder when the smoothed value stays above the high watermark:
//
//   kNormal -> kShedBestEffort -> kClampNoncompliant -> kAlarm
//
// Each escalation requires wd_escalate_after consecutive over-watermark
// windows; recovery (one stage down) requires wd_recover_after consecutive
// windows below the *low* watermark — the gap between the watermarks plus the
// asymmetric window counts is the hysteresis that prevents stage flapping.
// Stage actions are applied through the InjectionPolicer: stage >= shed turns
// on best-effort shedding, stage >= clamp additionally hard-clamps
// connections that have ever violated their contract to their mean rate.
// kAlarm takes no further traffic action; it is the operator signal.
#pragma once

#include <cstdint>

#include "mmr/overload/policer.hpp"
#include "mmr/overload/spec.hpp"
#include "mmr/sim/time.hpp"

namespace mmr::overload {

enum class WatchdogStage : std::uint8_t {
  kNormal = 0,
  kShedBestEffort = 1,
  kClampNoncompliant = 2,
  kAlarm = 3,
};

[[nodiscard]] const char* to_string(WatchdogStage s);

class SaturationWatchdog {
 public:
  SaturationWatchdog(const PoliceSpec& spec, std::uint32_t ports);

  /// True when on_cycle(now, ...) will read the backlog sample — lets the
  /// caller skip computing it on non-window cycles.
  [[nodiscard]] bool wants_sample(Cycle now) const {
    return spec_.wd_window != 0 && (now + 1) % spec_.wd_window == 0;
  }

  /// Call once per simulation cycle with the total in-flight flit backlog
  /// (NIC queues + router buffers + penalty queues; only read on
  /// wants_sample cycles).  Applies stage changes to `policer` (must
  /// outlive this call; never null).
  void on_cycle(Cycle now, std::uint64_t backlog_flits,
                InjectionPolicer& policer);

  /// MMU backpressure escalation (flow=shared runs only): call once per
  /// cycle with the age of the oldest still-open Xoff pause.  A pause held
  /// longer than wd_pause_limit means backpressure is not draining — the
  /// watchdog jumps straight to kAlarm and applies the full ladder (shed +
  /// clamp).  Re-arms once every pause has closed.  wd_pause_limit == 0
  /// disables the check.
  void on_mmu_pause(Cycle now, Cycle longest_open_pause,
                    InjectionPolicer& policer);
  [[nodiscard]] std::uint32_t pause_alarms() const { return pause_alarms_; }

  [[nodiscard]] WatchdogStage stage() const { return stage_; }
  [[nodiscard]] double ewma() const { return ewma_; }
  [[nodiscard]] std::uint32_t escalations() const { return escalations_; }
  [[nodiscard]] std::uint32_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint32_t alarms() const { return alarms_; }
  /// Cycles spent in each stage so far (indexed by WatchdogStage).
  [[nodiscard]] Cycle cycles_in_stage(WatchdogStage s) const {
    return cycles_in_stage_[static_cast<std::size_t>(s)];
  }

  /// Checkpoint walk: ladder position, EWMA, hysteresis counters.
  void snap(snapshot::Walker& w);

 private:
  void apply(InjectionPolicer& policer) const;

  PoliceSpec spec_;
  double ports_;
  WatchdogStage stage_ = WatchdogStage::kNormal;
  double ewma_ = 0.0;
  bool seeded_ = false;            ///< first sample initialises the EWMA
  std::uint32_t over_windows_ = 0;  ///< consecutive windows above wd_high
  std::uint32_t calm_windows_ = 0;  ///< consecutive windows below wd_low
  std::uint32_t escalations_ = 0;
  std::uint32_t recoveries_ = 0;
  std::uint32_t alarms_ = 0;
  std::uint32_t pause_alarms_ = 0;
  bool pause_alarmed_ = false;  ///< latched until all pauses clear
  Cycle cycles_in_stage_[4] = {0, 0, 0, 0};
};

}  // namespace mmr::overload
