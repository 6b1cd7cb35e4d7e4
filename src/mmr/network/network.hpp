// The network names of the one engine, its metrics and its workload, and
// the builders on an explicit topology.  Every mix builder in
// traffic/mix.hpp places on any topology, so these forwarders and aliases
// stay only because the benchmark harness (mmrbench/) still uses them;
// they go with its next change (ROADMAP item 8).
#pragma once

#include "mmr/core/simulation.hpp"
#include "mmr/network/routing.hpp"
#include "mmr/network/topology.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {

using MmrNetworkSimulation = MmrSimulation;
using NetworkMetrics = SimulationMetrics;
using NetworkWorkload = Workload;

/// add_cbr_mix on an empty workload over `topology`.
[[nodiscard]] inline Workload build_network_cbr_mix(
    const SimConfig& config, const NetworkTopology& topology,
    const CbrMixSpec& spec, Rng& rng) {
  Workload workload(topology);
  add_cbr_mix(workload, config, spec, rng);
  return workload;
}

/// add_vbr_mix on an empty workload over `topology`.
[[nodiscard]] inline Workload build_network_vbr_mix(
    const SimConfig& config, const NetworkTopology& topology,
    const VbrMixSpec& spec, Rng& rng) {
  Workload workload(topology);
  add_vbr_mix(workload, config, spec, rng);
  return workload;
}

}  // namespace mmr
