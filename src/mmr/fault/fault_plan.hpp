// Fault plans (`fault=`, DESIGN.md §7): a deterministic schedule of the ways
// an inter-router channel can misbehave — link-down windows, per-link flit
// drop / corruption and credit-loss probabilities — so the simulator can
// measure how gracefully the arbiters degrade and recover.  An empty()
// plan is a strict no-op: the fault machinery is never instantiated.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mmr/sim/rng.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

/// One scheduled outage of a directed inter-router channel: the link is
/// unusable during [down_at, up_at).  Flits in flight when the link goes
/// down are lost (their credits leak until the resync watchdog heals them);
/// connections routed over the link are torn down and re-admitted elsewhere.
struct LinkDownWindow {
  std::uint32_t channel = 0;
  Cycle down_at = 0;
  Cycle up_at = 0;
  bool operator==(const LinkDownWindow&) const = default;
};

/// Stochastic per-channel fault rates, drawn per event from the injector's
/// per-channel RNG stream (deterministic for a fixed plan seed).
struct ChannelFaultRates {
  double drop_probability = 0.0;     ///< flit vanishes on the wire
  double corrupt_probability = 0.0;  ///< flit fails CRC at the receiver
  double credit_loss_probability = 0.0;  ///< returning credit vanishes

  [[nodiscard]] bool any() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           credit_loss_probability > 0.0;
  }
  bool operator==(const ChannelFaultRates&) const = default;
};

struct FaultPlan : spec::Parsed<FaultPlan> {
  /// Scheduled outages (need not be sorted; windows on one channel must not
  /// overlap).
  std::vector<LinkDownWindow> down_windows;

  /// Rates applied to every channel unless overridden.
  ChannelFaultRates default_rates;
  /// Per-channel overrides (channel, rates); later entries win.
  std::vector<std::pair<std::uint32_t, ChannelFaultRates>> channel_rates;

  /// Seed of the injector's per-channel RNG streams (independent from the
  /// simulation seed so fault draws never perturb workload generation).
  std::uint64_t seed = 0xFA017u;

  // Recovery knobs -----------------------------------------------------------
  /// The credit-resync watchdog audits every channel once per period and
  /// restores counters once a deficit has persisted for the timeout.
  Cycle resync_period = 1024;
  Cycle resync_timeout = 4096;

  /// End-to-end delay (flit cycles) above which a delivered flit counts as
  /// a QoS violation, tallied separately inside and outside fault windows.
  double qos_deadline_cycles = kQosDeadlineCycles;

  /// True when the plan cannot produce any fault event.
  [[nodiscard]] bool empty() const;

  /// Rates effective on `channel` after overrides.
  [[nodiscard]] ChannelFaultRates rates_for(std::uint32_t channel) const;

  /// Throws std::invalid_argument on nonsense (probabilities outside
  /// [0, 1], inverted or overlapping windows, channel out of range...).
  void validate(std::uint32_t channels) const;

  static const spec::Grammar& grammar();
  bool operator==(const FaultPlan&) const = default;

  /// RNG-driven schedule: `count` non-overlapping outage windows of length
  /// [min_len, max_len] placed uniformly on random channels within
  /// [horizon_begin, horizon_end).
  [[nodiscard]] static FaultPlan random_windows(std::uint32_t channels,
                                                std::uint32_t count,
                                                Cycle horizon_begin,
                                                Cycle horizon_end,
                                                Cycle min_len, Cycle max_len,
                                                Rng& rng);
};

}  // namespace mmr
