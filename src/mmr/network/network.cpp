#include "mmr/network/network.hpp"

#include <algorithm>

#include "mmr/qos/rounds.hpp"

namespace mmr {

namespace {

/// Shared placement machinery: destination pool and all-or-nothing per-hop
/// VC reservation (what the setup probe does).
class NetworkPlacer {
 public:
  NetworkPlacer(const SimConfig& config, const NetworkTopology& topology)
      : config_(config),
        vc_cursor_(topology.routers(),
                   std::vector<std::uint32_t>(topology.ports_per_router(), 0)) {
    for (std::uint32_t r = 0; r < topology.routers(); ++r) {
      for (std::uint32_t p : topology.local_output_ports(r)) {
        sinks_.push_back({r, p});
      }
    }
    MMR_ASSERT_MSG(!sinks_.empty(), "topology has no local output ports");
  }

  [[nodiscard]] const std::vector<PortEndpoint>& sinks() const {
    return sinks_;
  }

  /// Registers a connection whose path is reserved: its host-view table
  /// entry (class, rates, slots; global input/output link indices) and its
  /// route.  Returns the connection id.
  ConnectionId add(Workload& workload, NetworkConnection connection) const {
    const RoundAccounting rounds(config_.flit_cycles_per_round(),
                                 config_.time_base());
    const std::uint32_t ports = workload.topology.ports_per_router();
    ConnectionDescriptor descriptor;
    descriptor.traffic_class = connection.traffic_class;
    descriptor.input_link =
        connection.first_hop().router * ports + connection.first_hop().in_port;
    descriptor.output_link =
        connection.last_hop().router * ports + connection.last_hop().out_port;
    descriptor.mean_bandwidth_bps = connection.mean_bandwidth_bps;
    descriptor.peak_bandwidth_bps = connection.peak_bandwidth_bps;
    descriptor.slots_per_round =
        rounds.slots_for_bandwidth(connection.mean_bandwidth_bps);
    descriptor.peak_slots_per_round =
        rounds.slots_for_bandwidth(connection.peak_bandwidth_bps);
    connection.id = workload.table.add(descriptor, config_.vcs_per_link);
    workload.connections.push_back(std::move(connection));
    return workload.connections.back().id;
  }

  [[nodiscard]] bool reserve_path(std::vector<Hop>& path) {
    for (const Hop& hop : path) {
      if (vc_cursor_[hop.router][hop.in_port] >= config_.vcs_per_link) {
        return false;
      }
    }
    for (Hop& hop : path) {
      hop.vc = vc_cursor_[hop.router][hop.in_port]++;
    }
    return true;
  }

 private:
  const SimConfig& config_;
  std::vector<PortEndpoint> sinks_;
  std::vector<std::vector<std::uint32_t>> vc_cursor_;
};

}  // namespace

Workload build_network_cbr_mix(const SimConfig& config,
                                      const NetworkTopology& topology,
                                      const CbrMixSpec& spec, Rng& rng) {
  MMR_ASSERT(topology.ports_per_router() == config.ports);
  MMR_ASSERT(!spec.classes.empty());
  MMR_ASSERT(spec.classes.size() == spec.class_weights.size());

  Workload workload(topology);
  const TimeBase time_base = config.time_base();
  NetworkPlacer placer(config, topology);
  const std::vector<PortEndpoint>& sinks = placer.sinks();

  std::vector<std::size_t> by_rate(spec.classes.size());
  for (std::size_t i = 0; i < by_rate.size(); ++i) by_rate[i] = i;
  std::sort(by_rate.begin(), by_rate.end(),
            [&spec](std::size_t a, std::size_t b) {
              return spec.classes[a].bps > spec.classes[b].bps;
            });

  for (std::uint32_t r = 0; r < topology.routers(); ++r) {
    for (std::uint32_t in_port : topology.local_input_ports(r)) {
      Rng port_rng = rng.fork(0x33CC + r * 64 + in_port);
      double remaining_bps =
          spec.target_load * time_base.link_bandwidth_bps();
      while (true) {
        std::size_t cls = port_rng.weighted_index(spec.class_weights);
        if (spec.classes[cls].bps > remaining_bps) {
          bool found = false;
          for (std::size_t idx : by_rate) {
            if (spec.classes[idx].bps <= remaining_bps) {
              cls = idx;
              found = true;
              break;
            }
          }
          if (!found) break;
        }
        const double bps = spec.classes[cls].bps;
        const PortEndpoint sink =
            sinks[port_rng.uniform(sinks.size())];
        NetworkConnection connection;
        connection.traffic_class = TrafficClass::kCbr;
        connection.mean_bandwidth_bps = bps;
        connection.peak_bandwidth_bps = bps;
        connection.path =
            compute_path(topology, r, in_port, sink.router, sink.port);
        if (!placer.reserve_path(connection.path)) break;  // VCs exhausted
        const ConnectionId id = placer.add(workload, std::move(connection));
        const double phase =
            port_rng.uniform_real() * (time_base.link_bandwidth_bps() / bps);
        workload.sources.push_back(
            std::make_unique<CbrSource>(id, bps, time_base, phase));
        remaining_bps -= bps;
      }
    }
  }
  workload.check_invariants();
  return workload;
}

Workload build_network_vbr_mix(const SimConfig& config,
                                      const NetworkTopology& topology,
                                      const VbrMixSpec& spec, Rng& rng) {
  MMR_ASSERT(topology.ports_per_router() == config.ports);
  MMR_ASSERT(spec.trace_gops >= 1);

  Workload workload(topology);
  const TimeBase time_base = config.time_base();
  NetworkPlacer placer(config, topology);
  const std::vector<PortEndpoint>& sinks = placer.sinks();
  const auto& library = mpeg_sequence_library();
  const double period_cycles =
      time_base.seconds_to_cycles(kFramePeriodSeconds);

  // Pass 1: plan connections and realise traces (the BB peak rate is
  // workload-wide, so sources are built afterwards).
  struct Planned {
    NetworkConnection connection;
    MpegTrace trace;
    double phase;
    std::uint32_t start_frame;
  };
  std::vector<Planned> planned;
  for (std::uint32_t r = 0; r < topology.routers(); ++r) {
    for (std::uint32_t in_port : topology.local_input_ports(r)) {
      Rng port_rng = rng.fork(0x44DD + r * 64 + in_port);
      double remaining_bps =
          spec.target_load * time_base.link_bandwidth_bps();
      while (true) {
        const auto& params = library[port_rng.uniform(library.size())];
        if (params.mean_bps() > remaining_bps) {
          const auto leanest = std::min_element(
              library.begin(), library.end(),
              [](const MpegSequenceParams& a, const MpegSequenceParams& b) {
                return a.mean_bps() < b.mean_bps();
              });
          if (leanest->mean_bps() > remaining_bps) break;
          continue;
        }
        Planned p;
        p.connection.traffic_class = TrafficClass::kVbr;
        const PortEndpoint sink = sinks[port_rng.uniform(sinks.size())];
        p.connection.path =
            compute_path(topology, r, in_port, sink.router, sink.port);
        if (!placer.reserve_path(p.connection.path)) break;
        p.trace = generate_mpeg_trace(params, spec.trace_gops, port_rng);
        p.connection.mean_bandwidth_bps = p.trace.mean_bps();
        p.connection.peak_bandwidth_bps = p.trace.peak_bps();
        p.start_frame =
            static_cast<std::uint32_t>(port_rng.uniform(p.trace.frames()));
        p.phase = port_rng.uniform_real() * period_cycles;
        remaining_bps -= p.connection.mean_bandwidth_bps;
        planned.push_back(std::move(p));
      }
    }
  }

  double workload_peak_bps = 0.0;
  for (const Planned& p : planned) {
    workload_peak_bps =
        std::max(workload_peak_bps, p.connection.peak_bandwidth_bps);
  }
  workload_peak_bps =
      std::min(workload_peak_bps, time_base.link_bandwidth_bps());

  for (Planned& p : planned) {
    const ConnectionId id = placer.add(workload, std::move(p.connection));
    workload.sources.push_back(std::make_unique<VbrSource>(
        id, std::move(p.trace), spec.model, time_base, workload_peak_bps,
        p.phase, p.start_frame));
  }
  workload.check_invariants();
  return workload;
}

}  // namespace mmr
