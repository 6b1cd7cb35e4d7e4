#include "mmr/core/metrics.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

#include "mmr/core/fairness.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/traffic/cbr.hpp"

namespace mmr {

namespace {

/// The mean of one per-run ratio, each run weighted by the runs it pools:
/// the weighted values are summed once in ascending order and divided
/// once, so the order of the runs cannot change a bit.
template <typename Value>
double average(const std::vector<SimulationMetrics>& runs, Value value) {
  std::vector<double> terms;
  terms.reserve(runs.size());
  std::uint64_t weight = 0;
  for (const SimulationMetrics& run : runs) {
    terms.push_back(std::invoke(value, run) * run.merged_runs);
    weight += run.merged_runs;
  }
  std::sort(terms.begin(), terms.end());
  double sum = 0.0;
  for (const double term : terms) sum += term;
  return sum / static_cast<double>(weight);
}

}  // namespace

SimulationMetrics merge_runs(const std::vector<SimulationMetrics>& runs) {
  MMR_ASSERT(!runs.empty());
  SimulationMetrics merged = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const SimulationMetrics& run = runs[r];
    MMR_ASSERT_MSG(run.arbiter == merged.arbiter,
                   "can only merge runs of the same arbiter");
    MMR_ASSERT_MSG(run.router_utilization.size() ==
                       merged.router_utilization.size(),
                   "can only merge runs of the same topology");

    merged.flits_generated += run.flits_generated;
    merged.flits_delivered += run.flits_delivered;
    merged.flit_delay_us.merge(run.flit_delay_us);
    merged.delivered_hops.merge(run.delivered_hops);

    merged.frames_completed += run.frames_completed;
    merged.frame_delay_us.merge(run.frame_delay_us);
    merged.frame_jitter_us.merge(run.frame_jitter_us);
    merged.max_frame_jitter_us =
        std::fmax(merged.max_frame_jitter_us, run.max_frame_jitter_us);
    merged.backlog_flits += run.backlog_flits;

    MMR_ASSERT_MSG(run.overload.enabled == merged.overload.enabled &&
                       run.overload.policy == merged.overload.policy,
                   "can only merge runs with the same overload setup");
    OverloadMetrics& o = merged.overload;
    const OverloadMetrics& ro = run.overload;
    o.rogue_connections += ro.rogue_connections;
    o.noncompliant_connections += ro.noncompliant_connections;
    for (std::size_t c = 0; c < 3; ++c) {
      o.policed[c].conforming += ro.policed[c].conforming;
      o.policed[c].dropped += ro.policed[c].dropped;
      o.policed[c].demoted += ro.policed[c].demoted;
      o.policed[c].shaped += ro.policed[c].shaped;
      o.policed[c].penalty_overflow += ro.policed[c].penalty_overflow;
      o.policed[c].shed += ro.policed[c].shed;
    }
    o.shape_delay_us.merge(ro.shape_delay_us);
    o.watchdog_escalations += ro.watchdog_escalations;
    o.watchdog_recoveries += ro.watchdog_recoveries;
    o.watchdog_alarms += ro.watchdog_alarms;
    for (std::size_t s = 0; s < 4; ++s)
      o.cycles_in_stage[s] += ro.cycles_in_stage[s];
    o.compliant_delivered += ro.compliant_delivered;
    o.compliant_violations += ro.compliant_violations;
    o.rogue_delivered += ro.rogue_delivered;
    o.rogue_violations += ro.rogue_violations;
    o.compliant_policed += ro.compliant_policed;
    o.rogue_policed += ro.rogue_policed;
    o.watchdog_pause_alarms += ro.watchdog_pause_alarms;

    MMR_ASSERT_MSG(run.mmu.enabled == merged.mmu.enabled,
                   "can only merge runs with the same flow regime");
    MmuMetrics& mm = merged.mmu;
    const MmuMetrics& rm = run.mmu;
    mm.admitted_reserved += rm.admitted_reserved;
    mm.admitted_shared += rm.admitted_shared;
    mm.admitted_headroom += rm.admitted_headroom;
    mm.drops_lossless += rm.drops_lossless;
    mm.drops_lossy += rm.drops_lossy;
    mm.pause_events += rm.pause_events;
    mm.resume_events += rm.resume_events;
    mm.pause_cycles_total += rm.pause_cycles_total;
    mm.pause_cycles_max = std::max(mm.pause_cycles_max, rm.pause_cycles_max);
    mm.headroom_highwater =
        std::max(mm.headroom_highwater, rm.headroom_highwater);
    mm.pool_highwater = std::max(mm.pool_highwater, rm.pool_highwater);
    mm.pool_occupancy.merge(rm.pool_occupancy);
    mm.ecn_marked += rm.ecn_marked;
    mm.ecn_eligible += rm.ecn_eligible;
    mm.ecn_cuts += rm.ecn_cuts;
    MMR_ASSERT_MSG(run.queue_discipline == merged.queue_discipline,
                   "can only merge runs of the same queue discipline");
    MMR_ASSERT_MSG(run.cicq.enabled == merged.cicq.enabled &&
                       run.cicq.stabilized == merged.cicq.stabilized,
                   "can only merge runs with the same crosspoint setup");
    merged.cicq.transfers += run.cicq.transfers;
    merged.cicq.credit_stalls += run.cicq.credit_stalls;
    merged.cicq.burst_activations += run.cicq.burst_activations;
    merged.cicq.burst_deactivations += run.cicq.burst_deactivations;
    merged.degradation.merge(run.degradation);

    // Per-connection vectors are not comparable across workload
    // realisations; only the pooled index survives a merge.
    merged.generated_per_connection.clear();
    merged.delivered_per_connection.clear();
    merged.merged_runs += run.merged_runs;
  }
  // Classes by label: each run lists its own in its workload's order.
  std::vector<ClassMetrics>& classes = merged.per_class;
  classes.clear();
  for (const SimulationMetrics& run : runs) {
    for (const ClassMetrics& cls : run.per_class) {
      const auto at = std::lower_bound(
          classes.begin(), classes.end(), cls.label,
          [](const ClassMetrics& c, const std::string& label) {
            return c.label < label;
          });
      if (at != classes.end() && at->label == cls.label) {
        at->merge(cls);
      } else {
        classes.insert(at, cls);
      }
    }
  }
  using M = SimulationMetrics;
  merged.generated_load_nominal = average(runs, &M::generated_load_nominal);
  merged.generated_load_measured = average(runs, &M::generated_load_measured);
  merged.delivered_load = average(runs, &M::delivered_load);
  merged.crossbar_utilization = average(runs, &M::crossbar_utilization);
  for (std::size_t i = 0; i < merged.router_utilization.size(); ++i)
    merged.router_utilization[i] = average(
        runs, [i](const M& run) { return run.router_utilization[i]; });
  merged.mean_matching_size = average(runs, &M::mean_matching_size);
  merged.mean_reconfigurations = average(runs, &M::mean_reconfigurations);
  merged.fairness_index = average(runs, &M::fairness_index);
  return merged;
}

void DelayStats::merge(const DelayStats& other) {
  MMR_ASSERT_MSG(other.empty() || cycle_us_ == other.cycle_us_,
                 "delay statistics of different flit times do not merge");
  stats_.merge(other.stats_);
  hist_.merge(other.hist_);
}

void DelayStats::snap(snapshot::Walker& w) {
  stats_.snap(w);
  hist_.snap(w);
}

void ClassMetrics::merge(const ClassMetrics& other) {
  flits_generated += other.flits_generated;
  flits_delivered += other.flits_delivered;
  flit_delay_us.merge(other.flit_delay_us);
}

void DegradationMetrics::merge(const DegradationMetrics& other) {
  enabled = enabled || other.enabled;
  flits_dropped += other.flits_dropped;
  flits_corrupted += other.flits_corrupted;
  flits_flushed += other.flits_flushed;
  source_flits_discarded += other.source_flits_discarded;
  credits_lost += other.credits_lost;
  credits_restored += other.credits_restored;
  resync_events += other.resync_events;
  teardowns += other.teardowns;
  reroutes += other.reroutes;
  readmissions += other.readmissions;
  connections_lost += other.connections_lost;
  recovery_latency_us.merge(other.recovery_latency_us);
  delivered_during_fault += other.delivered_during_fault;
  delivered_outside_fault += other.delivered_outside_fault;
  qos_violations_during_fault += other.qos_violations_during_fault;
  qos_violations_outside_fault += other.qos_violations_outside_fault;
}

void DeliveryTally::merge(const DeliveryTally& other) {
  MMR_ASSERT(classes.size() == other.classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c)
    classes[c].merge(other.classes[c]);
  hops.merge(other.hops);
  frame_delay.merge(other.frame_delay);
  compliant_delivered += other.compliant_delivered;
  compliant_violations += other.compliant_violations;
  rogue_delivered += other.rogue_delivered;
  rogue_violations += other.rogue_violations;
  fault.merge(other.fault);
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

double DegradationMetrics::violation_rate_during_fault() const {
  return ratio(qos_violations_during_fault, delivered_during_fault);
}

double DegradationMetrics::violation_rate_outside_fault() const {
  return ratio(qos_violations_outside_fault, delivered_outside_fault);
}

double OverloadMetrics::compliant_violation_rate() const {
  return ratio(compliant_violations, compliant_delivered);
}

double OverloadMetrics::rogue_violation_rate() const {
  return ratio(rogue_violations, rogue_delivered);
}

double OverloadMetrics::degraded_fraction() const {
  const std::uint64_t total = cycles_in_stage[0] + cycles_in_stage[1] +
                              cycles_in_stage[2] + cycles_in_stage[3];
  return total == 0
             ? 0.0
             : static_cast<double>(total - cycles_in_stage[0]) /
                   static_cast<double>(total);
}

double survival_rate(const ClassMetrics& cls) {
  return cls.flits_generated == 0
             ? 1.0
             : ratio(cls.flits_delivered, cls.flits_generated);
}

const ClassMetrics* SimulationMetrics::find_class(
    const std::string& label) const {
  for (const ClassMetrics& c : per_class) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

std::string class_label(const ConnectionDescriptor& descriptor) {
  switch (descriptor.traffic_class) {
    case TrafficClass::kVbr:
      return "VBR";
    case TrafficClass::kBestEffort:
      return "BE";
    case TrafficClass::kCbr:
      break;
  }
  // Name the paper's classes; format anything else by rate.
  for (const CbrClass& cls : {kCbrLow, kCbrMedium, kCbrHigh}) {
    if (descriptor.mean_bandwidth_bps == cls.bps) {
      return std::string("CBR ") + cls.name;
    }
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "CBR %.3g Mbps",
                descriptor.mean_bandwidth_bps / 1e6);
  return buf;
}

MetricsCollector::MetricsCollector(const ConnectionTable& table,
                                   const SimConfig& config,
                                   std::uint32_t local_inputs,
                                   std::uint32_t local_outputs)
    : table_(table),
      time_base_(config.time_base()),
      warmup_(config.warmup_cycles),
      measure_cycles_(config.measure_cycles),
      local_inputs_(local_inputs),
      local_outputs_(local_outputs),
      frame_jitter_(table.size()),
      generated_per_connection_(table.size(), 0),
      delivered_per_connection_(table.size(), 0) {
  const DelayStats delay(time_base_.flit_cycle_us());
  std::vector<ClassMetrics>& classes = empty_.classes;
  class_of_connection_.reserve(table.size());
  for (const ConnectionDescriptor& c : table.all()) {
    const std::string label = class_label(c);
    std::size_t index = classes.size();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (classes[i].label == label) {
        index = i;
        break;
      }
    }
    if (index == classes.size())
      classes.push_back(ClassMetrics{label, 0, 0, delay});
    class_of_connection_.push_back(index);
  }
  empty_.frame_delay = delay;
  empty_.fault.recovery_latency_us = delay;
  tally_ = empty_;
}

void MetricsCollector::on_generated(ConnectionId connection,
                                    Cycle generated_at) {
  if (!measured(generated_at)) return;
  MMR_ASSERT(connection < class_of_connection_.size());
  ++generated_;
  ++generated_per_connection_[connection];
  ++tally_.classes[class_of_connection_[connection]].flits_generated;
}

void MetricsCollector::on_delivered(const Flit& flit, Cycle delivered_at,
                                    std::uint32_t hops,
                                    DeliveryTally& tally) {
  if (!measured(delivered_at)) return;
  MMR_ASSERT(flit.connection < class_of_connection_.size());
  MMR_ASSERT(delivered_at >= flit.generated_at);

  const Cycle delay = delivered_at - flit.generated_at;
  ++delivered_per_connection_[flit.connection];
  tally.hops.add(hops);
  ClassMetrics& cls = tally.classes[class_of_connection_[flit.connection]];
  ++cls.flits_delivered;
  cls.flit_delay_us.add(delay);

  // Frame completion: the paper measures frame delay as the delay of the
  // last flit of the frame since its generation — a flit-delay measure, so
  // it compares across injection models (Section 5.2).
  const ConnectionDescriptor& descriptor = table_.get(flit.connection);
  if (flit.last_of_frame && descriptor.traffic_class == TrafficClass::kVbr) {
    tally.frame_delay.add(delay);
    frame_jitter_[flit.connection].add(delay);
  }
}

SimulationMetrics MetricsCollector::finalize(
    const std::vector<const MmrRouter*>& routers,
    double generated_load_nominal, std::uint64_t backlog,
    const DeliveryTally& deliveries) const {
  MMR_ASSERT(!routers.empty());
  const MmrRouter& router = *routers.front();
  SimulationMetrics m;
  m.arbiter = router.arbiter().name();
  switch (router.queue_discipline()) {
    case QueueDiscipline::kVc:
      m.queue_discipline = "vc";
      break;
    case QueueDiscipline::kVoq:
      m.queue_discipline = "voq";
      break;
    case QueueDiscipline::kCicq:
      m.queue_discipline = "cicq";
      break;
  }
  for (const MmrRouter* r : routers) {
    const CicqFabric* fabric = r->cicq();
    if (fabric == nullptr) continue;
    m.cicq.enabled = true;
    m.cicq.stabilized = fabric->spec().stabilize;
    m.cicq.transfers += fabric->transfers();
    m.cicq.credit_stalls += fabric->credit_stalls();
    m.cicq.burst_activations += fabric->burst_activations();
    m.cicq.burst_deactivations += fabric->burst_deactivations();
  }
  m.flit_cycle_us = time_base_.flit_cycle_us();
  m.generated_load_nominal = generated_load_nominal;

  const double cycles = static_cast<double>(measure_cycles_);
  m.generated_load_measured = static_cast<double>(generated_) /
                              (static_cast<double>(local_inputs_) * cycles);
  m.delivered_load = static_cast<double>(deliveries.hops.count()) /
                     (static_cast<double>(local_outputs_) * cycles);

  const double count = static_cast<double>(routers.size());
  for (const MmrRouter* r : routers) {
    m.router_utilization.push_back(r->crossbar().utilization());
    m.crossbar_utilization += r->crossbar().utilization() / count;
    m.mean_matching_size += r->crossbar().mean_matching_size() / count;
    m.mean_reconfigurations += r->crossbar().mean_reconfigurations() / count;
  }

  m.flits_generated = generated_;
  m.flits_delivered = deliveries.hops.count();
  m.flit_delay_us = DelayStats(m.flit_cycle_us);
  for (const ClassMetrics& cls : deliveries.classes)
    m.flit_delay_us.merge(cls.flit_delay_us);
  m.per_class = deliveries.classes;
  m.delivered_hops = deliveries.hops;

  m.frames_completed = deliveries.frame_delay.count();
  m.frame_delay_us = deliveries.frame_delay;
  // Mean jitters are fractions of a cycle; rounded to 2^-32 cycles they stay
  // integer, so merge_runs pools them exactly.
  constexpr int kJitterBits = 32;
  m.frame_jitter_us = DelayStats(std::ldexp(m.flit_cycle_us, -kJitterBits));
  for (const JitterTracker& jitter : frame_jitter_) {
    const CycleStats& deltas = jitter.deltas();
    if (deltas.empty()) continue;
    const CycleWide mean =
        ((deltas.sum() << kJitterBits) + deltas.count() / 2) / deltas.count();
    MMR_ASSERT(mean <= std::numeric_limits<Cycle>::max());
    m.frame_jitter_us.add(static_cast<Cycle>(mean));
    m.max_frame_jitter_us =
        std::fmax(m.max_frame_jitter_us,
                  static_cast<double>(deltas.max()) * m.flit_cycle_us);
  }
  m.overload.compliant_delivered = deliveries.compliant_delivered;
  m.overload.compliant_violations = deliveries.compliant_violations;
  m.overload.rogue_delivered = deliveries.rogue_delivered;
  m.overload.rogue_violations = deliveries.rogue_violations;
  m.degradation = deliveries.fault;
  m.backlog_flits = backlog;
  m.generated_per_connection = generated_per_connection_;
  m.delivered_per_connection = delivered_per_connection_;
  m.fairness_index = jain_fairness_index(
      normalized_shares(delivered_per_connection_, generated_per_connection_));
  return m;
}

void ClassMetrics::snap(snapshot::Walker& w) {
  snapshot::value(w, flits_generated);
  snapshot::value(w, flits_delivered);
  flit_delay_us.snap(w);
}

void DegradationMetrics::snap(snapshot::Walker& w) {
  snapshot::value(w, enabled);
  snapshot::value(w, flits_dropped);
  snapshot::value(w, flits_corrupted);
  snapshot::value(w, flits_flushed);
  snapshot::value(w, source_flits_discarded);
  snapshot::value(w, credits_lost);
  snapshot::value(w, credits_restored);
  snapshot::value(w, resync_events);
  snapshot::value(w, teardowns);
  snapshot::value(w, reroutes);
  snapshot::value(w, readmissions);
  snapshot::value(w, connections_lost);
  recovery_latency_us.snap(w);
  snapshot::value(w, delivered_during_fault);
  snapshot::value(w, delivered_outside_fault);
  snapshot::value(w, qos_violations_during_fault);
  snapshot::value(w, qos_violations_outside_fault);
}

void DeliveryTally::snap(snapshot::Walker& w) {
  // The class list is sized (and labelled) at construction from the
  // connection table; walk the accumulators in place so a restore keeps the
  // labels instead of default-reconstructing the elements.
  std::uint64_t count = classes.size();
  snapshot::value(w, count);
  if (w.loading())
    MMR_ASSERT_MSG(count == classes.size(),
                   "metrics snapshot class count mismatch");
  for (ClassMetrics& c : classes) c.snap(w);
  hops.snap(w);
  frame_delay.snap(w);
  snapshot::value(w, compliant_delivered);
  snapshot::value(w, compliant_violations);
  snapshot::value(w, rogue_delivered);
  snapshot::value(w, rogue_violations);
  fault.snap(w);
}

void MetricsCollector::snap(snapshot::Walker& w) {
  tally_.snap(w);
  std::uint64_t count = frame_jitter_.size();
  snapshot::value(w, count);
  if (w.loading())
    MMR_ASSERT_MSG(count == frame_jitter_.size(),
                   "metrics snapshot jitter-tracker count mismatch");
  for (JitterTracker& j : frame_jitter_) j.snap(w);
  snapshot::walk_vector_pod(w, generated_per_connection_);
  snapshot::walk_vector_pod(w, delivered_per_connection_);
  snapshot::value(w, generated_);
}

}  // namespace mmr
