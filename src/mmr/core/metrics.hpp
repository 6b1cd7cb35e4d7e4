// Measurement: exactly the quantities the paper's evaluation reports.
//  * Average flit delay since generation, per CBR bandwidth class (Fig. 5).
//  * Average crossbar utilization (Fig. 8).
//  * Average frame delay since generation — the delay of the last flit of
//    each video frame, measured from the frame boundary (Fig. 9).
//  * Frame jitter — delay variation between adjacent frames of one
//    connection (Section 5.2).
// Every delay is accumulated in integer flit cycles (sim/cycle_stats.hpp);
// µs appear only where a result is read.
#pragma once

#include <string>
#include <vector>

#include "mmr/overload/policer.hpp"
#include "mmr/qos/connection.hpp"
#include "mmr/router/router.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/sim/cycle_stats.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

/// A delay distribution kept in integer flit cycles and read in µs: the
/// state merges exactly, and every read scales it once by the flit time.
class DelayStats {
 public:
  /// Reads out raw cycles.
  DelayStats() = default;
  /// Reads out µs at a flit time of `cycle_us`.
  explicit DelayStats(double cycle_us) : cycle_us_(cycle_us) {}

  void add(Cycle cycles) {
    stats_.add(cycles);
    hist_.add(cycles);
  }
  /// Both sides must share the flit time.
  void merge(const DelayStats& other);

  [[nodiscard]] std::uint64_t count() const { return stats_.count(); }
  [[nodiscard]] bool empty() const { return stats_.empty(); }
  [[nodiscard]] double mean() const { return stats_.mean() * cycle_us_; }
  [[nodiscard]] double variance() const {
    return stats_.variance() * cycle_us_ * cycle_us_;
  }
  [[nodiscard]] double min() const {
    return static_cast<double>(stats_.min()) * cycle_us_;
  }
  [[nodiscard]] double max() const {
    return static_cast<double>(stats_.max()) * cycle_us_;
  }
  [[nodiscard]] double p50() const { return hist_.quantile(0.50) * cycle_us_; }
  [[nodiscard]] double p95() const { return hist_.quantile(0.95) * cycle_us_; }
  [[nodiscard]] double p99() const { return hist_.quantile(0.99) * cycle_us_; }

  [[nodiscard]] const CycleStats& cycles() const { return stats_; }
  [[nodiscard]] const CycleHistogram& histogram() const { return hist_; }

  /// Checkpoint walk: the integer state (the flit time is configuration).
  void snap(snapshot::Walker& w);

  friend bool operator==(const DelayStats&, const DelayStats&) = default;

 private:
  CycleStats stats_;
  CycleHistogram hist_;
  double cycle_us_ = 1.0;
};

/// Statistics for one traffic class (e.g. "CBR 64 Kbps", "VBR", "BE").
struct ClassMetrics {
  std::string label;
  std::uint64_t flits_generated = 0;  ///< within the measurement window
  std::uint64_t flits_delivered = 0;
  DelayStats flit_delay_us;

  void merge(const ClassMetrics& other);
  /// Checkpoint walk: the accumulators only (the label is a
  /// construction-time constant).
  void snap(snapshot::Walker& w);
};

/// Graceful-degradation accounting produced by fault-injection runs (see
/// mmr/fault/).  All-zero when no fault plan is active.
struct DegradationMetrics {
  bool enabled = false;  ///< a fault plan was installed

  // Flit losses, by cause.
  std::uint64_t flits_dropped = 0;    ///< vanished on a faulty link
  std::uint64_t flits_corrupted = 0;  ///< failed CRC at the receiving router
  std::uint64_t flits_flushed = 0;    ///< discarded by connection teardown
  std::uint64_t source_flits_discarded = 0;  ///< generated while disconnected

  // Credit-loop damage and repair.
  std::uint64_t credits_lost = 0;      ///< credit-return messages lost
  std::uint64_t credits_restored = 0;  ///< re-created by the resync watchdog
  std::uint64_t resync_events = 0;     ///< watchdog interventions

  // Connection lifecycle under faults.
  std::uint64_t teardowns = 0;     ///< connections torn off a failed link
  std::uint64_t reroutes = 0;      ///< immediately re-admitted elsewhere
  std::uint64_t readmissions = 0;  ///< re-admitted after an outage
  std::uint64_t connections_lost = 0;  ///< still disconnected at run end

  /// Time from damage to repair: credit-leak age at restoration and
  /// connection outage duration at re-admission.
  DelayStats recovery_latency_us;

  // QoS impact: deliveries and deadline violations, split by whether any
  // link was inside a down window at delivery time.
  std::uint64_t delivered_during_fault = 0;
  std::uint64_t delivered_outside_fault = 0;
  std::uint64_t qos_violations_during_fault = 0;
  std::uint64_t qos_violations_outside_fault = 0;

  [[nodiscard]] double violation_rate_during_fault() const;
  [[nodiscard]] double violation_rate_outside_fault() const;

  void merge(const DegradationMetrics& other);
  /// Checkpoint walk (fault-injection runs accumulate these live).
  void snap(snapshot::Walker& w);
};

/// Delivered fraction of generated flits for a class (1.0 when nothing was
/// generated): the per-class survival rate fault benches report.
[[nodiscard]] double survival_rate(const ClassMetrics& cls);

/// Injection-policing tallies for one traffic class.
using PolicedClassTally = overload::ClassTally;

/// Overload-protection accounting produced by runs with `police=` and/or
/// `rogue=` set (see mmr/overload/).  All-zero / disabled otherwise.
struct OverloadMetrics {
  bool enabled = false;      ///< policer and/or rogue sources were active
  std::string policy;        ///< "drop" | "shape" | "demote" | "off"
  std::uint32_t rogue_connections = 0;
  std::uint32_t noncompliant_connections = 0;  ///< ever exceeded contract

  /// Policer verdicts, indexed by TrafficClass (CBR, VBR, BE).
  PolicedClassTally policed[3];

  /// Extra injection delay imposed on shaped flits (shape policy only).
  DelayStats shape_delay_us;

  // Saturation-watchdog ladder.
  std::uint64_t watchdog_escalations = 0;
  std::uint64_t watchdog_recoveries = 0;
  std::uint64_t watchdog_alarms = 0;
  std::uint64_t watchdog_pause_alarms = 0;  ///< stuck-Xoff escalations
  /// Cycles spent per stage: normal, shed-BE, clamp, alarm.
  std::uint64_t cycles_in_stage[4] = {0, 0, 0, 0};

  // QoS deliveries and deadline violations within the measurement window,
  // split by whether the connection's source was rogue.
  std::uint64_t compliant_delivered = 0;
  std::uint64_t compliant_violations = 0;
  std::uint64_t rogue_delivered = 0;
  std::uint64_t rogue_violations = 0;
  // Policed actions (drops + demotions + overflow), same split.
  std::uint64_t compliant_policed = 0;
  std::uint64_t rogue_policed = 0;

  [[nodiscard]] double compliant_violation_rate() const;
  [[nodiscard]] double rogue_violation_rate() const;
  /// Fraction of the run spent above kNormal (0 when nothing ran).
  [[nodiscard]] double degraded_fraction() const;
};

/// Shared-buffer MMU accounting produced by `flow=shared` runs (see
/// mmr/mmu/).  All-zero / disabled otherwise.
struct MmuMetrics {
  bool enabled = false;  ///< the shared-buffer regime was active

  // Admissions by the pool that absorbed the flit.
  std::uint64_t admitted_reserved = 0;
  std::uint64_t admitted_shared = 0;
  std::uint64_t admitted_headroom = 0;  ///< lossless overflow during pause

  // Refusals, split by loss class.  `drops_lossless` must stay zero — that
  // is the regime's lossless guarantee; bench/incast_survival gates on it.
  std::uint64_t drops_lossless = 0;
  std::uint64_t drops_lossy = 0;

  // Xon/Xoff pause activity.
  std::uint64_t pause_events = 0;
  std::uint64_t resume_events = 0;
  std::uint64_t pause_cycles_total = 0;  ///< summed over ports
  std::uint64_t pause_cycles_max = 0;    ///< longest single pause

  // Occupancy extremes and the sampled shared-pool occupancy profile.
  std::uint64_t headroom_highwater = 0;
  std::uint64_t pool_highwater = 0;
  CycleStats pool_occupancy;  ///< shared-pool flits, sampled

  // ECN marking and the reactor's response.
  std::uint64_t ecn_marked = 0;
  std::uint64_t ecn_eligible = 0;  ///< shared-pool admissions (mark trials)
  std::uint64_t ecn_cuts = 0;      ///< multiplicative rate reductions taken

  /// Marked fraction of mark-eligible admissions (0 when none).
  [[nodiscard]] double mark_rate() const {
    return ecn_eligible == 0
               ? 0.0
               : static_cast<double>(ecn_marked) /
                     static_cast<double>(ecn_eligible);
  }
};

/// Crosspoint-fabric accounting produced by `qd=cicq` runs (see
/// mmr/router/cicq.hpp).  All-zero / disabled otherwise.
struct CicqMetrics {
  bool enabled = false;      ///< the crosspoint fabric was active
  bool stabilized = false;   ///< burst stabilization (stab:1) was on
  std::uint64_t transfers = 0;         ///< VOQ -> crosspoint moves
  std::uint64_t credit_stalls = 0;     ///< input cycles blocked only on credit
  std::uint64_t burst_activations = 0;   ///< parked credits unlocked
  std::uint64_t burst_deactivations = 0; ///< bursts drained, credits parked
};

struct SimulationMetrics {
  std::string arbiter;
  std::string queue_discipline = "vc";  ///< qd= axis: vc | voq | cicq
  double flit_cycle_us = 0.0;

  // Load accounting (fractions of aggregate link bandwidth).
  double generated_load_nominal = 0.0;  ///< workload construction target hit
  double generated_load_measured = 0.0;
  double delivered_load = 0.0;

  // Crossbar (Fig. 8), averaged over routers; per router in
  // router_utilization.
  double crossbar_utilization = 0.0;
  double mean_matching_size = 0.0;
  double mean_reconfigurations = 0.0;
  std::vector<double> router_utilization;

  // Flit-level (Fig. 5).
  std::uint64_t flits_generated = 0;
  std::uint64_t flits_delivered = 0;
  DelayStats flit_delay_us;  ///< every class's, merged
  std::vector<ClassMetrics> per_class;
  /// Routers traversed by delivered flits (1.0 on one router).
  CycleStats delivered_hops;

  // Frame-level (Fig. 9 and the jitter discussion).
  std::uint64_t frames_completed = 0;
  DelayStats frame_delay_us;
  /// Per-connection mean jitters, in fixed point: 2^-32 cycles per unit.
  DelayStats frame_jitter_us;
  double max_frame_jitter_us = 0.0;

  // End-of-run backlog (flits still in NICs + router): grows without bound
  // past saturation.
  std::uint64_t backlog_flits = 0;

  // Overload protection (mmr/overload/); disabled unless police=/rogue= ran.
  OverloadMetrics overload;

  // Shared-buffer MMU backpressure (mmr/mmu/); disabled unless flow=shared.
  MmuMetrics mmu;

  // Crosspoint fabric (mmr/router/cicq.hpp); disabled unless qd=cicq.
  CicqMetrics cicq;

  // Fault injection (mmr/fault/); all-zero unless a fault plan was installed.
  DegradationMetrics degradation;

  // Fairness (Section 3's "efficient and fair resource scheduling"):
  // Jain's index over per-connection delivered/offered shares; 1.0 means
  // every connection received service proportional to its offered load.
  // Per-connection vectors are cleared by merge_runs (workloads differ).
  double fairness_index = 0.0;
  std::vector<std::uint64_t> generated_per_connection;
  std::vector<std::uint64_t> delivered_per_connection;

  /// Saturation heuristic: delivery falls measurably behind generation, or
  /// delays have exploded to hundreds of flit cycles (the paper's "delay
  /// grows without bound" signature).
  [[nodiscard]] bool saturated(double deficit_tolerance = 0.995,
                               double delay_threshold_cycles =
                                   kQosDeadlineCycles) const {
    if (delivered_load < generated_load_measured * deficit_tolerance)
      return true;
    return !flit_delay_us.empty() &&
           flit_delay_us.mean() > delay_threshold_cycles * flit_cycle_us;
  }

  /// Number of independent runs merged into this record (>= 1).
  std::uint32_t merged_runs = 1;

  [[nodiscard]] const ClassMetrics* find_class(const std::string& label) const;
};

/// Pools several runs of the same experiment point (different workload
/// realisations): sample statistics are merged, per-run ratios averaged.
[[nodiscard]] SimulationMetrics merge_runs(
    const std::vector<SimulationMetrics>& runs);

/// Stable class label used for grouping (CBR classes keyed by rate).
[[nodiscard]] std::string class_label(const ConnectionDescriptor& descriptor);

/// Everything a host delivery updates outside per-connection state.  A
/// sharded run keeps one per shard and folds them into the collector's;
/// every field merges exactly, so the fold order does not matter.
struct DeliveryTally {
  std::vector<ClassMetrics> classes;  ///< in the collector's class order
  CycleStats hops;  ///< one sample per delivered flit
  DelayStats frame_delay;  ///< one sample per completed frame

  // QoS deadline split between compliant and rogue sources (police= and
  // rogue= runs only).
  std::uint64_t compliant_delivered = 0;
  std::uint64_t compliant_violations = 0;
  std::uint64_t rogue_delivered = 0;
  std::uint64_t rogue_violations = 0;

  /// Fault accounting (fault-plan runs only), from the serial sections and
  /// the shards alike.
  DegradationMetrics fault;

  void merge(const DeliveryTally& other);
  void snap(snapshot::Walker& w);
};

/// Accumulates per-flit / per-frame events during a run.
class MetricsCollector {
 public:
  /// `table` is the host view of every connection (Workload::table); loads
  /// are fractions of the local input / output link capacity.
  MetricsCollector(const ConnectionTable& table, const SimConfig& config,
                   std::uint32_t local_inputs, std::uint32_t local_outputs);

  void on_generated(ConnectionId connection, Cycle generated_at);
  /// A flit reached its host after traversing `hops` routers.  Its
  /// connection's own counters are written here: every delivery of a
  /// connection happens at its sink router, so in one shard.  Everything
  /// else goes to `tally`.
  void on_delivered(const Flit& flit, Cycle delivered_at, std::uint32_t hops,
                    DeliveryTally& tally);

  /// The collector's own tally: the serial loop delivers into it, and
  /// shard tallies fold into it.
  [[nodiscard]] DeliveryTally& tally() { return tally_; }
  [[nodiscard]] const DeliveryTally& tally() const { return tally_; }
  /// An empty tally in this collector's layout, to start a shard's from.
  [[nodiscard]] const DeliveryTally& empty_tally() const { return empty_; }

  /// Assembles the final metrics from `deliveries` (the collector's tally
  /// with every shard's folded in).  `backlog` = flits still queued.
  [[nodiscard]] SimulationMetrics finalize(
      const std::vector<const MmrRouter*>& routers,
      double generated_load_nominal, std::uint64_t backlog,
      const DeliveryTally& deliveries) const;

  /// Checkpoint walk: every accumulator that feeds finalize().
  void snap(snapshot::Walker& w);

 private:
  [[nodiscard]] bool measured(Cycle cycle) const {
    return cycle >= warmup_;
  }

  const ConnectionTable& table_;
  TimeBase time_base_;
  Cycle warmup_;
  Cycle measure_cycles_;
  std::uint32_t local_inputs_;
  std::uint32_t local_outputs_;

  std::vector<std::size_t> class_of_connection_;
  DeliveryTally empty_;
  DeliveryTally tally_;
  std::vector<JitterTracker> frame_jitter_;  ///< per QoS connection
  std::vector<std::uint64_t> generated_per_connection_;
  std::vector<std::uint64_t> delivered_per_connection_;
  std::uint64_t generated_ = 0;
};

}  // namespace mmr
