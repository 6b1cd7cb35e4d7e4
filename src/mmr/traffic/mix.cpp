#include "mmr/traffic/mix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/log.hpp"
#include "mmr/traffic/besteffort.hpp"

namespace mmr {

double Workload::generated_load(const TimeBase& time_base) const {
  double total = 0.0;
  std::uint32_t local = 0;
  const std::uint32_t ports = topology.ports_per_router();
  for (std::uint32_t link = 0; link < table.ports(); ++link) {
    if (!topology.input_is_local(link / ports, link % ports)) continue;
    total += generated_load_on_input(link, time_base);
    ++local;
  }
  return total / static_cast<double>(local);
}

double Workload::generated_load_on_input(std::uint32_t link,
                                         const TimeBase& time_base) const {
  double bps = 0.0;
  for (ConnectionId id : table.on_input_link(link)) {
    bps += sources[id]->mean_bps();
  }
  return time_base.load_fraction(bps);
}

void Workload::check_invariants() const {
  MMR_ASSERT_MSG(sources.size() == table.size(),
                 "one source per connection required");
  for (std::size_t id = 0; id < sources.size(); ++id) {
    MMR_ASSERT(sources[id] != nullptr);
    MMR_ASSERT(sources[id]->connection() == static_cast<ConnectionId>(id));
  }
  if (connections.empty()) {
    MMR_ASSERT_MSG(topology.routers() == 1,
                   "a multi-router workload needs one path per connection");
    return;
  }
  MMR_ASSERT_MSG(connections.size() == sources.size(),
                 "one path per connection required");
  const std::uint32_t ports = topology.ports_per_router();
  for (std::size_t id = 0; id < connections.size(); ++id) {
    const NetworkConnection& c = connections[id];
    MMR_ASSERT(c.id == static_cast<ConnectionId>(id));
    MMR_ASSERT(!c.path.empty());
    const Hop& first = c.first_hop();
    const Hop& last = c.last_hop();
    MMR_ASSERT(topology.input_is_local(first.router, first.in_port));
    MMR_ASSERT(topology.output_is_local(last.router, last.out_port));
    const ConnectionDescriptor& d = table.get(c.id);
    MMR_ASSERT(d.input_link == first.router * ports + first.in_port);
    MMR_ASSERT(d.output_link == last.router * ports + last.out_port);
    MMR_ASSERT(d.vc == first.vc);
    for (std::size_t h = 0; h + 1 < c.path.size(); ++h) {
      const auto down =
          topology.downstream(c.path[h].router, c.path[h].out_port);
      MMR_ASSERT_MSG(down.has_value(), "interior hop must leave on a channel");
      MMR_ASSERT(down->router == c.path[h + 1].router);
      MMR_ASSERT(down->port == c.path[h + 1].in_port);
    }
  }
}

namespace {

/// Shared helper: admits (optionally) and registers a connection + source.
/// Returns false when admission rejected the connection.
bool place_connection(Workload& workload, const SimConfig& config,
                      AdmissionController* admission,
                      ConnectionDescriptor descriptor,
                      const std::function<std::unique_ptr<TrafficSource>(
                          ConnectionId)>& make_source) {
  if (admission != nullptr && !admission->try_admit(descriptor)) return false;
  if (admission == nullptr && descriptor.is_qos()) {
    // Record the slot reservation even when CAC is bypassed: the priority
    // biasing functions need slots_per_round.
    RoundAccounting rounds(config.flit_cycles_per_round(), config.time_base());
    descriptor.slots_per_round =
        rounds.slots_for_bandwidth(descriptor.mean_bandwidth_bps);
    descriptor.peak_slots_per_round =
        rounds.slots_for_bandwidth(descriptor.peak_bandwidth_bps);
  }
  const ConnectionId id =
      workload.table.add(descriptor, config.vcs_per_link);
  workload.sources.push_back(make_source(id));
  return true;
}

/// Tracks per-output allocated bandwidth and draws destinations.
class DestinationChooser {
 public:
  DestinationChooser(std::uint32_t ports, DestinationPolicy policy)
      : policy_(policy), allocated_bps_(ports, 0.0) {}

  std::uint32_t choose(double bps, Rng& rng) {
    const auto ports = static_cast<std::uint32_t>(allocated_bps_.size());
    std::uint32_t pick = 0;
    switch (policy_) {
      case DestinationPolicy::kUniformRandom:
        pick = static_cast<std::uint32_t>(rng.uniform(ports));
        break;
      case DestinationPolicy::kBalanced: {
        double best = allocated_bps_[0];
        std::uint32_t ties = 1;
        for (std::uint32_t out = 1; out < ports; ++out) {
          if (allocated_bps_[out] < best) {
            best = allocated_bps_[out];
            pick = out;
            ties = 1;
          } else if (allocated_bps_[out] == best) {
            ++ties;
            if (rng.uniform(ties) == 0) pick = out;
          }
        }
        break;
      }
    }
    allocated_bps_[pick] += bps;
    return pick;
  }

 private:
  DestinationPolicy policy_;
  std::vector<double> allocated_bps_;
};

}  // namespace

void add_cbr_mix(Workload& workload, const SimConfig& config,
                 const CbrMixSpec& spec, Rng& rng) {
  MMR_ASSERT(!spec.classes.empty());
  MMR_ASSERT(spec.classes.size() == spec.class_weights.size());
  MMR_ASSERT(spec.target_load >= 0.0);
  MMR_ASSERT(workload.table.ports() == config.ports);
  MMR_ASSERT(spec.hot_output < static_cast<std::int32_t>(config.ports));

  const TimeBase time_base = config.time_base();
  std::optional<AdmissionController> admission;
  if (spec.enforce_admission) {
    admission.emplace(config.ports,
                      RoundAccounting(config.flit_cycles_per_round(), time_base),
                      config.concurrency_factor);
  }

  DestinationChooser destinations(config.ports, spec.destinations);

  // Classes sorted by descending rate, for the fallback when the randomly
  // drawn class no longer fits in the remaining budget.
  std::vector<std::size_t> by_rate(spec.classes.size());
  for (std::size_t i = 0; i < by_rate.size(); ++i) by_rate[i] = i;
  std::sort(by_rate.begin(), by_rate.end(), [&spec](std::size_t a, std::size_t b) {
    return spec.classes[a].bps > spec.classes[b].bps;
  });

  for (std::uint32_t link = 0; link < config.ports; ++link) {
    // Per-link child stream: the connections placed on a link form a common
    // prefix across target loads (common random numbers), which makes load
    // sweeps monotone instead of re-rolling every hot spot per point.
    Rng link_rng = rng.fork(0x11AA + link);
    double remaining_bps = spec.target_load * time_base.link_bandwidth_bps();
    std::uint32_t rejected = 0;
    while (workload.table.on_input_link(link).size() < config.vcs_per_link) {
      // Draw a class; fall back to the largest class that still fits.
      std::size_t cls = link_rng.weighted_index(spec.class_weights);
      if (spec.classes[cls].bps > remaining_bps) {
        bool found = false;
        for (std::size_t idx : by_rate) {
          if (spec.classes[idx].bps <= remaining_bps) {
            cls = idx;
            found = true;
            break;
          }
        }
        if (!found) break;  // link filled to target
      }
      const double bps = spec.classes[cls].bps;

      ConnectionDescriptor descriptor;
      descriptor.traffic_class = TrafficClass::kCbr;
      descriptor.input_link = link;
      descriptor.output_link =
          spec.hot_output >= 0 ? static_cast<std::uint32_t>(spec.hot_output)
                               : destinations.choose(bps, link_rng);
      descriptor.mean_bandwidth_bps = bps;
      descriptor.peak_bandwidth_bps = bps;

      const double phase = link_rng.uniform_real() *
                           (time_base.link_bandwidth_bps() / bps);
      const bool placed = place_connection(
          workload, config, admission ? &*admission : nullptr, descriptor,
          [&](ConnectionId id) {
            return std::make_unique<CbrSource>(id, bps, time_base, phase);
          });
      if (placed) {
        remaining_bps -= bps;
      } else if (++rejected > 64) {
        break;  // CAC keeps rejecting (likely an output link is full)
      }
    }
  }
  workload.check_invariants();
}

void add_vbr_mix(Workload& workload, const SimConfig& config,
                 const VbrMixSpec& spec, Rng& rng) {
  MMR_ASSERT(spec.target_load >= 0.0);
  MMR_ASSERT(spec.trace_gops >= 1);
  MMR_ASSERT(workload.table.ports() == config.ports);

  const TimeBase time_base = config.time_base();
  std::optional<AdmissionController> admission;
  if (spec.enforce_admission) {
    admission.emplace(config.ports,
                      RoundAccounting(config.flit_cycles_per_round(), time_base),
                      config.concurrency_factor);
  }

  const auto& library = mpeg_sequence_library();
  DestinationChooser destinations(config.ports, spec.destinations);
  const double period_cycles =
      time_base.seconds_to_cycles(kFramePeriodSeconds);

  // Pass 1: choose connections and realise their traces; the BB peak rate
  // depends on the largest frame across the whole workload.
  struct Planned {
    ConnectionDescriptor descriptor;
    MpegTrace trace;
    double phase;
    std::uint32_t start_frame;
  };
  std::vector<Planned> planned;
  for (std::uint32_t link = 0; link < config.ports; ++link) {
    Rng link_rng = rng.fork(0x22BB + link);  // common prefix across loads
    double remaining_bps = spec.target_load * time_base.link_bandwidth_bps();
    auto placed_on_link = static_cast<std::uint32_t>(
        workload.table.on_input_link(link).size());
    while (placed_on_link < config.vcs_per_link) {
      const auto& params = library[link_rng.uniform(library.size())];
      if (params.mean_bps() > remaining_bps) {
        // Try the leanest sequence before giving up on this link.
        const auto leanest = std::min_element(
            library.begin(), library.end(),
            [](const MpegSequenceParams& a, const MpegSequenceParams& b) {
              return a.mean_bps() < b.mean_bps();
            });
        if (leanest->mean_bps() > remaining_bps) break;
        continue;  // redraw until an affordable sequence comes up
      }

      Planned p;
      p.descriptor.traffic_class = TrafficClass::kVbr;
      p.descriptor.input_link = link;
      p.descriptor.output_link =
          destinations.choose(params.mean_bps(), link_rng);
      p.trace = generate_mpeg_trace(params, spec.trace_gops, link_rng);
      p.descriptor.mean_bandwidth_bps = p.trace.mean_bps();
      p.descriptor.peak_bandwidth_bps = p.trace.peak_bps();
      // Random alignment within a GOP time: whole frames via start_frame,
      // the remainder as a sub-period boundary phase.
      p.start_frame =
          static_cast<std::uint32_t>(link_rng.uniform(p.trace.frames()));
      p.phase = link_rng.uniform_real() * period_cycles;
      remaining_bps -= p.descriptor.mean_bandwidth_bps;
      ++placed_on_link;
      planned.push_back(std::move(p));
    }
  }

  double workload_peak_bps = 0.0;
  for (const Planned& p : planned) {
    workload_peak_bps =
        std::max(workload_peak_bps, p.descriptor.peak_bandwidth_bps);
  }
  // BB model: common peak rate; cap at the link so the source stays legal
  // even for a pathological trace.
  workload_peak_bps =
      std::min(workload_peak_bps, time_base.link_bandwidth_bps());

  // Pass 2: admit and instantiate.
  for (Planned& p : planned) {
    place_connection(
        workload, config, admission ? &*admission : nullptr, p.descriptor,
        [&](ConnectionId id) {
          return std::make_unique<VbrSource>(
              id, std::move(p.trace), spec.model, time_base,
              workload_peak_bps, p.phase, p.start_frame);
        });
  }
  workload.check_invariants();
}

Workload build_cbr_mix(const SimConfig& config, const CbrMixSpec& spec,
                       Rng& rng) {
  Workload workload(config.ports);
  add_cbr_mix(workload, config, spec, rng);
  return workload;
}

Workload build_vbr_mix(const SimConfig& config, const VbrMixSpec& spec,
                       Rng& rng) {
  Workload workload(config.ports);
  add_vbr_mix(workload, config, spec, rng);
  return workload;
}

void add_best_effort(Workload& workload, const SimConfig& config,
                     const BestEffortSpec& spec, Rng& rng) {
  MMR_ASSERT(spec.connections_per_link >= 1);
  const TimeBase time_base = config.time_base();
  const double per_connection_bps = spec.load *
                                    time_base.link_bandwidth_bps() /
                                    spec.connections_per_link;
  for (std::uint32_t link = 0; link < config.ports; ++link) {
    for (std::uint32_t i = 0; i < spec.connections_per_link; ++i) {
      if (workload.table.on_input_link(link).size() >= config.vcs_per_link) {
        log_warn("best-effort: input link ", link, " out of VCs");
        break;
      }
      ConnectionDescriptor descriptor;
      descriptor.traffic_class = TrafficClass::kBestEffort;
      descriptor.input_link = link;
      descriptor.output_link =
          static_cast<std::uint32_t>(rng.uniform(config.ports));
      descriptor.mean_bandwidth_bps = per_connection_bps;
      descriptor.peak_bandwidth_bps = time_base.link_bandwidth_bps();
      const ConnectionId id =
          workload.table.add(descriptor, config.vcs_per_link);
      workload.sources.push_back(std::make_unique<BestEffortSource>(
          id, per_connection_bps, spec.mean_message_flits, time_base,
          rng.fork(0xBE57 + id)));
    }
  }
  workload.check_invariants();
}

}  // namespace mmr
