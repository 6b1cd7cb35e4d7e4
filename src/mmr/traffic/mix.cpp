#include "mmr/traffic/mix.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/log.hpp"
#include "mmr/traffic/besteffort.hpp"

namespace mmr {

ConnectionId Workload::add(ConnectionDescriptor descriptor,
                           std::vector<Hop> path, std::uint32_t vcs_per_link,
                           std::unique_ptr<TrafficSource> source) {
  MMR_ASSERT(!path.empty());
  MMR_ASSERT_MSG(
      topology.input_is_local(path.front().router, path.front().in_port) &&
          topology.output_is_local(path.back().router, path.back().out_port),
      "a path enters on a local input and leaves on a local output");
  for (std::size_t h = 0; h + 1 < path.size(); ++h) {
    const auto down = topology.downstream(path[h].router, path[h].out_port);
    MMR_ASSERT_MSG(down.has_value() && down->router == path[h + 1].router &&
                       down->port == path[h + 1].in_port,
                   "each interior hop leaves on the channel the next enters");
  }
  const std::uint32_t ports = topology.ports_per_router();
  for (Hop& hop : path) {
    std::uint32_t& reserved = reserved_vcs_[hop.router * ports + hop.in_port];
    MMR_ASSERT_MSG(reserved < vcs_per_link, "no VC left on a hop's input");
    hop.vc = reserved++;
  }
  descriptor.input_link = path.front().router * ports + path.front().in_port;
  descriptor.output_link = path.back().router * ports + path.back().out_port;
  const ConnectionId id = table.add(descriptor, vcs_per_link);
  MMR_ASSERT(table.get(id).vc == path.front().vc);
  MMR_ASSERT(source != nullptr && source->connection() == id);
  connections.push_back({id, descriptor.traffic_class,
                         descriptor.mean_bandwidth_bps,
                         descriptor.peak_bandwidth_bps, std::move(path)});
  sources.push_back(std::move(source));
  return id;
}

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
  MMR_ASSERT_MSG(sources.size() == table.size() &&
                     connections.size() == table.size(),
                 "one source and one path per connection required");
  for (std::size_t id = 0; id < sources.size(); ++id) {
    MMR_ASSERT(sources[id] != nullptr);
    MMR_ASSERT(sources[id]->connection() == static_cast<ConnectionId>(id));
    MMR_ASSERT(connections[id].id == static_cast<ConnectionId>(id));
  }
}

namespace {

/// The one placer behind every mix, on every topology: it lists the local
/// input ports (router-major) and the local output ports (the sinks), draws
/// each connection's sink, routes it along its shortest path, keeps one VC
/// cursor per (router, input port) and applies admission.
class Placer {
 public:
  Placer(Workload& workload, const SimConfig& config, DestinationPolicy policy,
         std::int32_t hot_sink, bool enforce_admission)
      : workload_(workload),
        config_(config),
        policy_(policy),
        hot_sink_(hot_sink),
        rounds_(config.flit_cycles_per_round(), config.time_base()),
        taken_(workload.reserved_vcs()) {
    const NetworkTopology& topology = workload.topology;
    MMR_ASSERT(topology.ports_per_router() == config.ports);
    for (std::uint32_t r = 0; r < topology.routers(); ++r) {
      for (std::uint32_t p : topology.local_input_ports(r))
        inputs_.push_back({r, p});
      for (std::uint32_t p : topology.local_output_ports(r))
        sinks_.push_back({r, p});
    }
    MMR_ASSERT_MSG(!sinks_.empty(), "topology has no local output ports");
    MMR_ASSERT_MSG(hot_sink < static_cast<std::int32_t>(sinks_.size()),
                   "hot_output must name a local output port");
    allocated_bps_.assign(sinks_.size(), 0.0);
    if (enforce_admission) {
      MMR_ASSERT_MSG(topology.routers() == 1,
                     "enforce_admission needs a one-router topology: "
                     "admission control is per router");
      admission_.emplace(config.ports, rounds_, config.concurrency_factor);
    }
  }

  [[nodiscard]] const std::vector<PortEndpoint>& inputs() const {
    return inputs_;
  }

  /// The input's child stream, `base + router * 64 + port`: the
  /// connections placed on a port form a common prefix across target loads
  /// (common random numbers), which makes load sweeps monotone instead of
  /// re-rolling every hot spot per point.  One router and routed fabrics
  /// keep their own bases.
  [[nodiscard]] Rng stream(const Rng& rng, std::uint64_t one_router,
                           std::uint64_t routed, PortEndpoint input) const {
    const std::uint64_t base =
        workload_.topology.routers() == 1 ? one_router : routed;
    return rng.fork(base + std::uint64_t{input.router} * 64 + input.port);
  }

  [[nodiscard]] bool has_vc(PortEndpoint input) const {
    return taken_[cursor(input.router, input.port)] < config_.vcs_per_link;
  }

  /// Draws the sink of a connection of `bps` and routes it; nullopt when a
  /// hop on the way has no VC left.
  std::optional<std::vector<Hop>> route(PortEndpoint input, double bps,
                                        Rng& rng) {
    const std::size_t sink = hot_sink_ >= 0
                                 ? static_cast<std::size_t>(hot_sink_)
                                 : draw_sink(rng);
    std::vector<Hop> path =
        compute_path(workload_.topology, input.router, input.port,
                     sinks_[sink].router, sinks_[sink].port);
    for (const Hop& hop : path) {
      if (taken_[cursor(hop.router, hop.in_port)] >= config_.vcs_per_link)
        return std::nullopt;
    }
    allocated_bps_[sink] += bps;
    return path;
  }

  /// Reserves the path's VCs on the cursor (Workload::add assigns them in
  /// the same order).
  void take(const std::vector<Hop>& path) {
    for (const Hop& hop : path) ++taken_[cursor(hop.router, hop.in_port)];
  }

  /// Admission control when enforced (false = rejected); otherwise the
  /// slot reservation is still recorded, since the priority biasing
  /// functions need slots_per_round.
  bool admit(ConnectionDescriptor& descriptor, const std::vector<Hop>& path) {
    if (admission_) {
      descriptor.input_link = path.front().in_port;  // one router
      descriptor.output_link = path.back().out_port;
      return admission_->try_admit(descriptor);
    }
    if (descriptor.is_qos()) {
      descriptor.slots_per_round =
          rounds_.slots_for_bandwidth(descriptor.mean_bandwidth_bps);
      descriptor.peak_slots_per_round =
          rounds_.slots_for_bandwidth(descriptor.peak_bandwidth_bps);
    }
    return true;
  }

  void add(const ConnectionDescriptor& descriptor, std::vector<Hop> path,
           std::unique_ptr<TrafficSource> source) {
    take(path);
    workload_.add(descriptor, std::move(path), config_.vcs_per_link,
                  std::move(source));
  }

 private:
  [[nodiscard]] std::size_t cursor(std::uint32_t router,
                                   std::uint32_t port) const {
    return std::size_t{router} * config_.ports + port;
  }

  std::size_t draw_sink(Rng& rng) {
    std::size_t pick = 0;
    switch (policy_) {
      case DestinationPolicy::kUniformRandom:
        pick = static_cast<std::size_t>(rng.uniform(sinks_.size()));
        break;
      case DestinationPolicy::kBalanced: {
        double best = allocated_bps_[0];
        std::uint32_t ties = 1;
        for (std::size_t sink = 1; sink < sinks_.size(); ++sink) {
          if (allocated_bps_[sink] < best) {
            best = allocated_bps_[sink];
            pick = sink;
            ties = 1;
          } else if (allocated_bps_[sink] == best) {
            ++ties;
            if (rng.uniform(ties) == 0) pick = sink;
          }
        }
        break;
      }
    }
    return pick;
  }

  Workload& workload_;
  const SimConfig& config_;
  DestinationPolicy policy_;
  std::int32_t hot_sink_;
  RoundAccounting rounds_;
  std::vector<std::uint32_t> taken_;  ///< VC cursor per (router, input)
  std::vector<PortEndpoint> inputs_;
  std::vector<PortEndpoint> sinks_;
  std::vector<double> allocated_bps_;  ///< per sink, for kBalanced
  std::optional<AdmissionController> admission_;
};

}  // namespace

void add_cbr_mix(Workload& workload, const SimConfig& config,
                 const CbrMixSpec& spec, Rng& rng) {
  MMR_ASSERT(!spec.classes.empty());
  MMR_ASSERT(spec.classes.size() == spec.class_weights.size());
  MMR_ASSERT(spec.target_load >= 0.0);

  const TimeBase time_base = config.time_base();
  Placer placer(workload, config, spec.destinations, spec.hot_output,
                spec.enforce_admission);

  // Classes sorted by descending rate, for the fallback when the randomly
  // drawn class no longer fits in the remaining budget.
  std::vector<std::size_t> by_rate(spec.classes.size());
  for (std::size_t i = 0; i < by_rate.size(); ++i) by_rate[i] = i;
  std::sort(by_rate.begin(), by_rate.end(),
            [&spec](std::size_t a, std::size_t b) {
              return spec.classes[a].bps > spec.classes[b].bps;
            });

  for (const PortEndpoint input : placer.inputs()) {
    Rng port_rng = placer.stream(rng, 0x11AA, 0x33CC, input);
    double remaining_bps = spec.target_load * time_base.link_bandwidth_bps();
    std::uint32_t rejected = 0;
    while (placer.has_vc(input)) {
      // Draw a class; fall back to the largest class that still fits.
      std::size_t cls = port_rng.weighted_index(spec.class_weights);
      if (spec.classes[cls].bps > remaining_bps) {
        const auto fits = std::find_if(
            by_rate.begin(), by_rate.end(), [&](std::size_t idx) {
              return spec.classes[idx].bps <= remaining_bps;
            });
        if (fits == by_rate.end()) break;  // port filled to target
        cls = *fits;
      }
      const double bps = spec.classes[cls].bps;
      std::optional<std::vector<Hop>> path =
          placer.route(input, bps, port_rng);
      if (!path) break;  // a hop on the way is out of VCs
      const double phase = port_rng.uniform_real() *
                           (time_base.link_bandwidth_bps() / bps);

      ConnectionDescriptor descriptor;
      descriptor.traffic_class = TrafficClass::kCbr;
      descriptor.mean_bandwidth_bps = bps;
      descriptor.peak_bandwidth_bps = bps;
      if (!placer.admit(descriptor, *path)) {
        if (++rejected > 64) break;  // CAC keeps rejecting (an output is full)
        continue;
      }
      placer.add(descriptor, std::move(*path),
                 std::make_unique<CbrSource>(
                     static_cast<ConnectionId>(workload.size()), bps,
                     time_base, phase));
      remaining_bps -= bps;
    }
  }
}

void add_vbr_mix(Workload& workload, const SimConfig& config,
                 const VbrMixSpec& spec, Rng& rng) {
  MMR_ASSERT(spec.target_load >= 0.0);
  MMR_ASSERT(spec.trace_gops >= 1);

  const TimeBase time_base = config.time_base();
  Placer placer(workload, config, spec.destinations, -1,
                spec.enforce_admission);
  const auto& library = mpeg_sequence_library();
  const double leanest_bps =
      std::min_element(
          library.begin(), library.end(),
          [](const MpegSequenceParams& a, const MpegSequenceParams& b) {
            return a.mean_bps() < b.mean_bps();
          })
          ->mean_bps();
  const double period_cycles =
      time_base.seconds_to_cycles(kFramePeriodSeconds);

  // Pass 1: choose connections and realise their traces; the BB peak rate
  // depends on the largest frame across the whole workload.
  struct Planned {
    std::vector<Hop> path;
    MpegTrace trace;
    double phase = 0.0;
    std::uint32_t start_frame = 0;
  };
  std::vector<Planned> planned;
  for (const PortEndpoint input : placer.inputs()) {
    Rng port_rng = placer.stream(rng, 0x22BB, 0x44DD, input);
    double remaining_bps = spec.target_load * time_base.link_bandwidth_bps();
    while (placer.has_vc(input)) {
      const auto& params = library[port_rng.uniform(library.size())];
      if (params.mean_bps() > remaining_bps) {
        // Try the leanest sequence before giving up on this port.
        if (leanest_bps > remaining_bps) break;
        continue;  // redraw until an affordable sequence comes up
      }
      std::optional<std::vector<Hop>> path =
          placer.route(input, params.mean_bps(), port_rng);
      if (!path) break;  // a hop on the way is out of VCs
      placer.take(*path);

      Planned p;
      p.path = std::move(*path);
      p.trace = generate_mpeg_trace(params, spec.trace_gops, port_rng);
      // Random alignment within a GOP time: whole frames via start_frame,
      // the remainder as a sub-period boundary phase.
      p.start_frame =
          static_cast<std::uint32_t>(port_rng.uniform(p.trace.frames()));
      p.phase = port_rng.uniform_real() * period_cycles;
      remaining_bps -= p.trace.mean_bps();
      planned.push_back(std::move(p));
    }
  }

  double workload_peak_bps = 0.0;
  for (const Planned& p : planned) {
    workload_peak_bps = std::max(workload_peak_bps, p.trace.peak_bps());
  }
  // BB model: common peak rate; cap at the link so the source stays legal
  // even for a pathological trace.
  workload_peak_bps =
      std::min(workload_peak_bps, time_base.link_bandwidth_bps());

  // Pass 2: admit and instantiate; the VCs are assigned here, so a rejected
  // plan leaves no gap.
  for (Planned& p : planned) {
    ConnectionDescriptor descriptor;
    descriptor.traffic_class = TrafficClass::kVbr;
    descriptor.mean_bandwidth_bps = p.trace.mean_bps();
    descriptor.peak_bandwidth_bps = p.trace.peak_bps();
    if (!placer.admit(descriptor, p.path)) continue;
    workload.add(descriptor, std::move(p.path), config.vcs_per_link,
                 std::make_unique<VbrSource>(
                     static_cast<ConnectionId>(workload.size()),
                     std::move(p.trace), spec.model, time_base,
                     workload_peak_bps, p.phase, p.start_frame));
  }
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
  Placer placer(workload, config, DestinationPolicy::kUniformRandom, -1,
                /*enforce_admission=*/false);
  for (const PortEndpoint input : placer.inputs()) {
    for (std::uint32_t i = 0; i < spec.connections_per_link; ++i) {
      std::optional<std::vector<Hop>> path;
      if (placer.has_vc(input))
        path = placer.route(input, per_connection_bps, rng);
      if (!path) {
        log_warn("best-effort: input link ",
                 input.router * config.ports + input.port, " out of VCs");
        break;
      }
      ConnectionDescriptor descriptor;
      descriptor.traffic_class = TrafficClass::kBestEffort;
      descriptor.mean_bandwidth_bps = per_connection_bps;
      descriptor.peak_bandwidth_bps = time_base.link_bandwidth_bps();
      const auto id = static_cast<ConnectionId>(workload.size());
      placer.add(descriptor, std::move(*path),
                 std::make_unique<BestEffortSource>(
                     id, per_connection_bps, spec.mean_message_flits,
                     time_base, rng.fork(0xBE57 + id)));
    }
  }
}

}  // namespace mmr
